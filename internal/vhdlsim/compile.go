package vhdlsim

// Compiled two-state fast path for VHDL processes and concurrent
// assignments. A sensitivity-list
// process whose body falls inside the compilable subset specializes
// into a flat sequence of Go closures over single-plane uint64 words;
// a per-activation guard checks that every signal the body reads is
// fully known and at most 64 bits wide (hdl.Known64), and any failure
// defers that activation to the 4-state interpreter. The compiled
// closures reproduce the interpreter's observable behaviour exactly:
// one statement-budget tick per executed statement, the same pooled
// kernel update records in the same order, and bit-for-bit identical
// scheduled values — so logs, waveforms, and final state are
// byte-identical by construction whichever path runs.
//
// The subset is kept narrow because the value model is rich (the loose
// integer/vector tag drives numeric_std width adaptation) and variables
// persist across activations:
//
//   - processes must have a sensitivity list and no declarations
//     (variables would extend the guard across activations);
//   - statements: signal assignment without an `after` clause to a
//     static target, if/elsif/else, case, and null;
//   - expressions: literals, signal and generic reads, not/-/+ and the
//     logical/arithmetic/relational operators, concatenation, constant
//     indexing and slicing, rising_edge/falling_edge/'event/'length,
//     and the numeric_std conversions with constant widths;
//   - `/`, mod, rem and ** stay interpreted (they can yield X on known
//     inputs), as do widths over 64 bits and dynamic indices.
//
// Statement-level ineligibility marks the whole process interpreted;
// the distinction between "never compiled" and "fell back this
// activation" is reported through sim.BackendStats.

import (
	"repro/internal/hdl"
	"repro/internal/vhdl"
)

// errNoCompile unwinds compilation when a construct falls outside the
// compilable subset. Recovered in compileProcess/compileConc.
type errNoCompile struct{}

func bail() { panic(errNoCompile{}) }

// vcenv is the runtime environment of one compiled program: the
// simulator executing it and the slot-resolved signals the program
// addresses.
type vcenv struct {
	s    *Simulator
	sigs []*Signal
}

// ready reports whether every guarded slot currently holds a fully
// known value representable in 64 bits — the condition under which the
// compiled closures are exact.
func (e *vcenv) ready(guards []int) bool {
	for _, i := range guards {
		if _, ok := e.sigs[i].Val.Known64(); !ok {
			return false
		}
	}
	return true
}

// vcexpr is one compiled expression: a closure producing the value as
// the low bits of a uint64 (masked to width), plus the statically
// known width and integer tag that drive numeric_std adaptation. con
// marks compile-time constants (fn ignores its argument).
type vcexpr struct {
	fn    func(*vcenv) uint64
	width int
	isInt bool
	con   bool
}

func vconst(v uint64, width int, isInt bool) vcexpr {
	return vcexpr{fn: func(*vcenv) uint64 { return v }, width: width, isInt: isInt, con: true}
}

// vstepFn executes one compiled statement.
type vstepFn func(*vcenv)

// vprocProg is the compiled form of one process body. Programs are
// cached per entity template and shared by every instance of that
// template: signals are addressed by local name (slots), and generic
// constants are baked in (both are functions of the template key).
type vprocProg struct {
	slots  []string
	guards []int
	body   []vstepFn
}

func (p *vprocProg) run(e *vcenv) {
	for _, f := range p.body {
		f(e)
	}
}

// vconcProg is the compiled form of one concurrent assignment. It is
// design-scoped (see Design.concProgFor), so slots resolve directly to
// the instance's signals at compile time.
type vconcProg struct {
	sigs   []*Signal
	guards []int
	waves  []vwave
	target vtarget
}

// vwave is one compiled conditional waveform: nil cond means
// unconditional.
type vwave struct {
	cond func(*vcenv) uint64
	val  func(*vcenv) uint64
}

// vtarget is a statically resolved signal assignment destination.
type vtarget struct {
	slot  int
	lo    int
	width int
	whole bool
}

func vmask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

func vb2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// schedule mirrors scheduleUpdate/assignSignal's partial-write record:
// one pooled zero-delay update carrying the value resized to the
// target width.
func (t vtarget) schedule(e *vcenv, v uint64) {
	r := e.s.kernel.ScheduleUpdate(0)
	r.Sig = e.sigs[t.slot]
	r.Val = hdl.FromUint(v&vmask(t.width), t.width)
	if t.whole {
		r.Apply = e.s.updFull
	} else {
		r.Lo = t.lo
		r.Apply = e.s.updPart
	}
}

// ---------------------------------------------------------------- compiler

// vcompiler compiles one process or concurrent assignment against an
// instance of the owning template. Signal identity is interned as
// local-name slots; every slot read as a value joins the guard set.
type vcompiler struct {
	s    *Simulator
	inst *Instance

	names   []string
	nameIdx map[string]int
	reads   map[int]bool
}

func newVcompiler(s *Simulator, inst *Instance) *vcompiler {
	return &vcompiler{s: s, inst: inst, nameIdx: map[string]int{}, reads: map[int]bool{}}
}

func (c *vcompiler) slotOf(sig *Signal) int {
	if i, ok := c.nameIdx[sig.Local]; ok {
		return i
	}
	i := len(c.names)
	c.names = append(c.names, sig.Local)
	c.nameIdx[sig.Local] = i
	return i
}

// readSlot interns a signal whose value the program reads; the guard
// requires it to classify two-state at activation time.
func (c *vcompiler) readSlot(sig *Signal) int {
	if sig.Width > 64 {
		bail()
	}
	i := c.slotOf(sig)
	c.reads[i] = true
	return i
}

func (c *vcompiler) guardList() []int {
	guards := make([]int, 0, len(c.reads))
	for i := range c.names {
		if c.reads[i] {
			guards = append(guards, i)
		}
	}
	return guards
}

// lookupSig resolves a name to a signal or generic; process variables
// never exist in the compiled subset (no declarations).
func (c *vcompiler) lookupSig(name string) (*Signal, hdl.Vector, int) {
	sig, _, gv, kind := c.s.lookupValue(c.inst, nil, name)
	return sig, gv, kind
}

// constIndex mirrors indexValue on a compile-time constant: integer
// values index signed (sign-extended from their width), vector values
// unsigned with the interpreter's 2^31 cap.
func constIndex(v vcexpr, e *vcenv) (int64, bool) {
	if !v.con {
		return 0, false
	}
	u := v.fn(e)
	if v.isInt {
		if v.width < 64 && u&(uint64(1)<<uint(v.width-1)) != 0 {
			u |= ^uint64(0) << uint(v.width)
		}
		return int64(u), true
	}
	if u > 1<<31 {
		return 0, false
	}
	return int64(u), true
}

// compileExpr compiles an expression mirroring evalCtx. ctx is the
// aggregate sizing context and propagates exactly as in the
// interpreter (through unary operators only).
func (c *vcompiler) compileExpr(e vhdl.Expr, ctx int) vcexpr {
	switch x := e.(type) {
	case *vhdl.IntLit:
		return vconst(uint64(x.Value)&vmask(32), 32, true)
	case *vhdl.CharLit:
		switch x.Value {
		case hdl.L0:
			return vconst(0, 1, false)
		case hdl.L1:
			return vconst(1, 1, false)
		}
		bail()
	case *vhdl.BitStrLit:
		u, ok := x.Value.Known64()
		if !ok {
			bail()
		}
		return vconst(u, x.Value.Width(), false)
	case *vhdl.BoolLit:
		return vconst(vb2u(x.Value), 1, false)
	case *vhdl.Name:
		return c.compileName(x)
	case *vhdl.AggregateExpr:
		if ctx <= 0 || ctx > 64 {
			bail()
		}
		fill := c.compileExpr(x.Others, 0)
		if !fill.con {
			bail()
		}
		if fill.fn(nil)&1 != 0 {
			return vconst(vmask(ctx), ctx, false)
		}
		return vconst(0, ctx, false)
	case *vhdl.UnaryExpr:
		v := c.compileExpr(x.X, ctx)
		m := vmask(v.width)
		f := v.fn
		switch x.Op {
		case "not":
			return vcexpr{fn: func(e *vcenv) uint64 { return ^f(e) & m }, width: v.width, con: v.con}
		case "-":
			return vcexpr{fn: func(e *vcenv) uint64 { return (0 - f(e)) & m }, width: v.width, isInt: v.isInt, con: v.con}
		case "+":
			return v
		}
		bail()
	case *vhdl.BinaryExpr:
		return c.compileBinary(x)
	case *vhdl.CallOrIndex:
		return c.compileCall(x)
	case *vhdl.AttrExpr:
		return c.compileAttr(x)
	}
	bail()
	return vcexpr{}
}

func (c *vcompiler) compileName(x *vhdl.Name) vcexpr {
	sig, gv, kind := c.lookupSig(x.Ident)
	switch kind {
	case 1:
		slot := c.readSlot(sig)
		return vcexpr{
			fn:    func(e *vcenv) uint64 { v, _ := e.sigs[slot].Val.Known64(); return v },
			width: sig.Width, isInt: sig.Kind == KindInt,
		}
	case 2:
		u, ok := gv.Known64()
		if !ok {
			bail()
		}
		return vconst(u, gv.Width(), gv.Width() == 32)
	}
	bail()
	return vcexpr{}
}

// adapt applies the numeric_std width rule (numericPair) statically:
// an integer adapts to the vector operand's width; two vectors meet at
// the larger width. Values are already masked to their own widths, so
// zero-extension is implicit and only truncation needs a mask.
func adapt(l, r vcexpr) (lf, rf func(*vcenv) uint64, w int, bothInt bool) {
	switch {
	case l.isInt && r.isInt:
		return l.fn, r.fn, maxi(l.width, r.width), true
	case l.isInt:
		w = maxi(r.width, 1)
		lf = l.fn
		if w < l.width {
			m, f := vmask(w), l.fn
			lf = func(e *vcenv) uint64 { return f(e) & m }
		}
		return lf, r.fn, w, false
	case r.isInt:
		w = maxi(l.width, 1)
		rf = r.fn
		if w < r.width {
			m, f := vmask(w), r.fn
			rf = func(e *vcenv) uint64 { return f(e) & m }
		}
		return l.fn, rf, w, false
	default:
		return l.fn, r.fn, maxi(l.width, r.width), false
	}
}

func (c *vcompiler) compileBinary(x *vhdl.BinaryExpr) vcexpr {
	switch x.Op {
	case "and", "or", "xor", "nand", "nor", "xnor":
		l := c.compileExpr(x.L, 0)
		r := c.compileExpr(x.R, 0)
		w := maxi(l.width, r.width)
		m := vmask(w)
		lf, rf := l.fn, r.fn
		var fn func(*vcenv) uint64
		switch x.Op {
		case "and":
			fn = func(e *vcenv) uint64 { return lf(e) & rf(e) }
		case "or":
			fn = func(e *vcenv) uint64 { return lf(e) | rf(e) }
		case "xor":
			fn = func(e *vcenv) uint64 { return lf(e) ^ rf(e) }
		case "nand":
			fn = func(e *vcenv) uint64 { return ^(lf(e) & rf(e)) & m }
		case "nor":
			fn = func(e *vcenv) uint64 { return ^(lf(e) | rf(e)) & m }
		case "xnor":
			fn = func(e *vcenv) uint64 { return ^(lf(e) ^ rf(e)) & m }
		}
		return vcexpr{fn: fn, width: w, con: l.con && r.con}
	case "&":
		l := c.compileExpr(x.L, 0)
		r := c.compileExpr(x.R, 0)
		w := l.width + r.width
		if w > 64 {
			bail()
		}
		lf, rf, sh := l.fn, r.fn, uint(r.width)
		return vcexpr{
			fn:    func(e *vcenv) uint64 { return lf(e)<<sh | rf(e) },
			width: w, con: l.con && r.con,
		}
	}
	l := c.compileExpr(x.L, 0)
	r := c.compileExpr(x.R, 0)
	lf, rf, w, bothInt := adapt(l, r)
	m := vmask(w)
	con := l.con && r.con
	switch x.Op {
	case "+":
		return vcexpr{fn: func(e *vcenv) uint64 { return (lf(e) + rf(e)) & m }, width: w, isInt: bothInt, con: con}
	case "-":
		return vcexpr{fn: func(e *vcenv) uint64 { return (lf(e) - rf(e)) & m }, width: w, isInt: bothInt, con: con}
	case "*":
		if !bothInt {
			// numeric_std "*": product width is the sum of the operand
			// widths (2x the vector width when one side is an integer).
			pw := l.width + r.width
			if l.isInt {
				pw = 2 * r.width
			} else if r.isInt {
				pw = 2 * l.width
			}
			if pw > 64 {
				bail()
			}
			pm := vmask(pw)
			return vcexpr{fn: func(e *vcenv) uint64 { return (lf(e) * rf(e)) & pm }, width: pw, con: con}
		}
		return vcexpr{fn: func(e *vcenv) uint64 { return (lf(e) * rf(e)) & m }, width: w, isInt: true, con: con}
	case "sll":
		return vcexpr{fn: vshl(lf, rf, w), width: w, isInt: bothInt, con: con}
	case "srl":
		return vcexpr{fn: vshr(lf, rf), width: w, isInt: bothInt, con: con}
	case "=":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) == rf(e)) }, width: 1, con: con}
	case "/=":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) != rf(e)) }, width: 1, con: con}
	case "<":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) < rf(e)) }, width: 1, con: con}
	case "<=":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) <= rf(e)) }, width: 1, con: con}
	case ">":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) > rf(e)) }, width: 1, con: con}
	case ">=":
		return vcexpr{fn: func(e *vcenv) uint64 { return vb2u(lf(e) >= rf(e)) }, width: 1, con: con}
	}
	bail()
	return vcexpr{}
}

// vshl mirrors hdl.Shl at width w: shift amounts of 64 or more clear
// the result (the unsigned amount is the raw word of the right
// operand, exactly as Vector.Uint produces it).
func vshl(lf, rf func(*vcenv) uint64, w int) func(*vcenv) uint64 {
	m := vmask(w)
	return func(e *vcenv) uint64 {
		n := rf(e)
		if n >= 64 {
			return 0
		}
		return lf(e) << n & m
	}
}

// vshr mirrors hdl.Shr (the left value is already masked, so zero fill
// is implicit).
func vshr(lf, rf func(*vcenv) uint64) func(*vcenv) uint64 {
	return func(e *vcenv) uint64 {
		n := rf(e)
		if n >= 64 {
			return 0
		}
		return lf(e) >> n
	}
}

// vashr mirrors hdl.AShr at width w: sign fill from the top bit, with
// the shift amount saturating at the width.
func vashr(lf, rf func(*vcenv) uint64, w int) func(*vcenv) uint64 {
	m := vmask(w)
	return func(e *vcenv) uint64 {
		v := lf(e)
		sh := rf(e)
		if sh > uint64(w) {
			sh = uint64(w)
		}
		out := v >> sh
		if sh > 0 && v&(uint64(1)<<uint(w-1)) != 0 {
			out |= ^uint64(0) << (uint64(w) - sh) & m
		}
		return out
	}
}

func (c *vcompiler) compileCall(x *vhdl.CallOrIndex) vcexpr {
	if _, _, kind := c.lookupSig(x.Name); kind != 0 {
		return c.compileSelect(x)
	}
	switch x.Name {
	case "rising_edge", "falling_edge":
		if len(x.Args) != 1 {
			bail()
		}
		nm, ok := x.Args[0].(*vhdl.Name)
		if !ok {
			bail()
		}
		sg, _, kind := c.lookupSig(nm.Ident)
		if kind != 1 {
			bail()
		}
		// The edge test reads Prev/Val through hdl.Logic comparisons,
		// which are exact for X/Z too — so the signal does not join the
		// Known64 guard set (slotOf, not readSlot).
		slot := c.slotOf(sg)
		rising := x.Name == "rising_edge"
		return vcexpr{fn: func(e *vcenv) uint64 {
			sig := e.sigs[slot]
			if !sig.eventFlagNow(e.s) {
				return 0
			}
			cur, prev := sig.Val.Bit(0), sig.Prev.Bit(0)
			if rising {
				return vb2u(cur == hdl.L1 && prev == hdl.L0)
			}
			return vb2u(cur == hdl.L0 && prev == hdl.L1)
		}, width: 1}
	case "to_unsigned", "to_signed", "conv_std_logic_vector":
		if len(x.Args) != 2 {
			bail()
		}
		v := c.compileExpr(x.Args[0], 0)
		w := c.constWidth(x.Args[1])
		m, f := vmask(w), v.fn
		return vcexpr{fn: func(e *vcenv) uint64 { return f(e) & m }, width: w, con: v.con}
	case "to_integer", "conv_integer":
		if len(x.Args) != 1 {
			bail()
		}
		v := c.compileExpr(x.Args[0], 0)
		m, f := vmask(32), v.fn
		return vcexpr{fn: func(e *vcenv) uint64 { return f(e) & m }, width: 32, isInt: true, con: v.con}
	case "std_logic_vector", "unsigned", "signed", "to_01":
		if len(x.Args) != 1 {
			bail()
		}
		v := c.compileExpr(x.Args[0], 0)
		return vcexpr{fn: v.fn, width: v.width, con: v.con}
	case "resize":
		if len(x.Args) != 2 {
			bail()
		}
		v := c.compileExpr(x.Args[0], 0)
		w := c.constWidth(x.Args[1])
		f := v.fn
		if w <= v.width {
			m := vmask(w)
			return vcexpr{fn: func(e *vcenv) uint64 { return f(e) & m }, width: w, con: v.con}
		}
		if isSignedExpr(x.Args[0]) {
			sw, ext := v.width, ^uint64(0)<<uint(v.width)&vmask(w)
			return vcexpr{fn: func(e *vcenv) uint64 {
				u := f(e)
				if u&(uint64(1)<<uint(sw-1)) != 0 {
					u |= ext
				}
				return u
			}, width: w, con: v.con}
		}
		return vcexpr{fn: f, width: w, con: v.con}
	case "shift_left":
		if len(x.Args) != 2 {
			bail()
		}
		l := c.compileExpr(x.Args[0], 0)
		r := c.compileExpr(x.Args[1], 0)
		return vcexpr{fn: vshl(l.fn, r.fn, l.width), width: l.width, con: l.con && r.con}
	case "shift_right":
		if len(x.Args) != 2 {
			bail()
		}
		l := c.compileExpr(x.Args[0], 0)
		r := c.compileExpr(x.Args[1], 0)
		if isSignedExpr(x.Args[0]) {
			return vcexpr{fn: vashr(l.fn, r.fn, l.width), width: l.width, con: l.con && r.con}
		}
		return vcexpr{fn: vshr(l.fn, r.fn), width: l.width, con: l.con && r.con}
	case "abs", "integer":
		// The interpreter passes the argument through unchanged
		// (including the integer tag); mirror that, not real abs.
		if len(x.Args) != 1 {
			bail()
		}
		return c.compileExpr(x.Args[0], 0)
	}
	bail()
	return vcexpr{}
}

// constWidth compiles a conversion-width argument, requiring the
// interpreter's validity range and the compiled backend's 64-bit cap.
func (c *vcompiler) constWidth(e vhdl.Expr) int {
	wv := c.compileExpr(e, 0)
	if !wv.con {
		bail()
	}
	w64 := wv.fn(nil)
	if w64 == 0 || w64 > 64 {
		bail()
	}
	return int(w64)
}

// compileSelect mirrors evalSelect for constant indices on signals and
// generics (variables cannot occur in the compiled subset).
func (c *vcompiler) compileSelect(x *vhdl.CallOrIndex) vcexpr {
	sig, gv, kind := c.lookupSig(x.Name)
	var msb, lsb int
	switch kind {
	case 1:
		msb, lsb = sig.MSB, sig.LSB
	case 2:
		msb, lsb = gv.Width()-1, 0
	default:
		bail()
	}
	toBit := func(idx int) (int, bool) {
		if msb >= lsb {
			if idx < lsb || idx > msb {
				return 0, false
			}
			return idx - lsb, true
		}
		if idx < msb || idx > lsb {
			return 0, false
		}
		return lsb - idx, true
	}
	if x.IsSlice {
		l64, ok1 := constIndex(c.compileExpr(x.Left, 0), nil)
		r64, ok2 := constIndex(c.compileExpr(x.Right, 0), nil)
		if !ok1 || !ok2 {
			bail()
		}
		lb, okL := toBit(int(l64))
		rb, okR := toBit(int(r64))
		if !okL || !okR {
			bail() // interpreter yields X for out-of-range slices
		}
		if lb > rb {
			lb, rb = rb, lb
		}
		w := rb - lb + 1
		return c.selectBits(sig, gv, kind, lb, w)
	}
	if len(x.Args) != 1 {
		bail()
	}
	i64, ok := constIndex(c.compileExpr(x.Args[0], 0), nil)
	if !ok {
		bail()
	}
	bit, inRange := toBit(int(i64))
	if !inRange {
		bail()
	}
	return c.selectBits(sig, gv, kind, bit, 1)
}

func (c *vcompiler) selectBits(sig *Signal, gv hdl.Vector, kind, lo, w int) vcexpr {
	m := vmask(w)
	if kind == 2 {
		u, ok := gv.Known64()
		if !ok {
			bail()
		}
		return vconst(u>>uint(lo)&m, w, false)
	}
	slot := c.readSlot(sig)
	sh := uint(lo)
	return vcexpr{fn: func(e *vcenv) uint64 {
		v, _ := e.sigs[slot].Val.Known64()
		return v >> sh & m
	}, width: w}
}

func (c *vcompiler) compileAttr(x *vhdl.AttrExpr) vcexpr {
	sig, gv, kind := c.lookupSig(x.Base)
	switch x.Attr {
	case "event":
		if kind != 1 {
			bail()
		}
		slot := c.slotOf(sig) // exact for X/Z: no guard entry
		return vcexpr{fn: func(e *vcenv) uint64 {
			return vb2u(e.sigs[slot].eventFlagNow(e.s))
		}, width: 1}
	case "length":
		switch kind {
		case 1:
			return vconst(uint64(sig.Width), 32, true)
		case 2:
			return vconst(uint64(gv.Width()), 32, true)
		}
	}
	bail()
	return vcexpr{}
}

// ---------------------------------------------------------------- statements

// compileTarget statically resolves an assignment destination,
// mirroring resolveSigTarget. Anything the interpreter resolves
// dynamically, discards, or faults on is ineligible.
func (c *vcompiler) compileTarget(target vhdl.Expr) vtarget {
	switch x := target.(type) {
	case *vhdl.Name:
		sig, _, kind := c.lookupSig(x.Ident)
		if kind != 1 || sig.Width > 64 {
			bail()
		}
		return vtarget{slot: c.slotOf(sig), lo: 0, width: sig.Width, whole: true}
	case *vhdl.CallOrIndex:
		sig, _, kind := c.lookupSig(x.Name)
		if kind != 1 || sig.Width > 64 {
			bail()
		}
		if x.IsSlice {
			l64, ok1 := constIndex(c.compileExpr(x.Left, 0), nil)
			r64, ok2 := constIndex(c.compileExpr(x.Right, 0), nil)
			if !ok1 || !ok2 {
				bail()
			}
			lb, okL := sig.declIndexToBit(int(l64))
			rb, okR := sig.declIndexToBit(int(r64))
			if !okL || !okR {
				bail()
			}
			if lb > rb {
				lb, rb = rb, lb
			}
			w := rb - lb + 1
			return vtarget{slot: c.slotOf(sig), lo: lb, width: w, whole: lb == 0 && w == sig.Width}
		}
		if len(x.Args) != 1 {
			bail()
		}
		i64, ok := constIndex(c.compileExpr(x.Args[0], 0), nil)
		if !ok {
			bail()
		}
		bit, inRange := sig.declIndexToBit(int(i64))
		if !inRange {
			bail()
		}
		return vtarget{slot: c.slotOf(sig), lo: bit, width: 1, whole: sig.Width == 1 && bit == 0}
	}
	bail()
	return vtarget{}
}

func (c *vcompiler) compileStmts(stmts []vhdl.Stmt) []vstepFn {
	out := make([]vstepFn, 0, len(stmts))
	for _, st := range stmts {
		out = append(out, c.compileStmt(st))
	}
	return out
}

// compileStmt compiles one statement. Every compiled statement charges
// one tick at entry, exactly where exec() does.
func (c *vcompiler) compileStmt(st vhdl.Stmt) vstepFn {
	switch x := st.(type) {
	case *vhdl.SigAssign:
		if x.AfterNs != nil {
			bail()
		}
		tgt := c.compileTarget(x.Target)
		val := c.compileExpr(x.Value, tgt.width)
		vf := val.fn
		return func(e *vcenv) {
			e.s.tick()
			tgt.schedule(e, vf(e))
		}
	case *vhdl.IfStmt:
		type vbranch struct {
			cond func(*vcenv) uint64
			body []vstepFn
		}
		branches := make([]vbranch, 0, len(x.Branches))
		for _, br := range x.Branches {
			branches = append(branches, vbranch{
				cond: c.compileExpr(br.Cond, 0).fn,
				body: c.compileStmts(br.Body),
			})
		}
		els := c.compileStmts(x.Else)
		return func(e *vcenv) {
			e.s.tick()
			for i := range branches {
				if branches[i].cond(e) != 0 {
					for _, f := range branches[i].body {
						f(e)
					}
					return
				}
			}
			for _, f := range els {
				f(e)
			}
		}
	case *vhdl.CaseStmt:
		return c.compileCase(x)
	case *vhdl.NullStmt:
		return func(e *vcenv) { e.s.tick() }
	}
	bail()
	return nil
}

// compileCase mirrors execCase: the subject evaluates self-determined,
// each choice with the subject's width as context, and the comparison
// follows the numeric_std adaptation before a known-value equality.
func (c *vcompiler) compileCase(x *vhdl.CaseStmt) vstepFn {
	subj := c.compileExpr(x.Expr, 0)
	type varm struct {
		matches []func(*vcenv, uint64) bool
		body    []vstepFn
	}
	var arms []varm
	var others []vstepFn
	hasOthers := false
	for i := range x.Arms {
		arm := &x.Arms[i]
		if arm.Choices == nil {
			hasOthers = true
			others = c.compileStmts(arm.Body)
			continue
		}
		va := varm{body: c.compileStmts(arm.Body)}
		for _, ch := range arm.Choices {
			cv := c.compileExpr(ch, subj.width)
			// Static numericPair between subject and choice: adapted
			// values compare as plain equality once both are known.
			var match func(*vcenv, uint64) bool
			cf := cv.fn
			switch {
			case subj.isInt && cv.isInt:
				match = func(e *vcenv, sv uint64) bool { return sv == cf(e) }
			case subj.isInt:
				m := vmask(maxi(cv.width, 1))
				match = func(e *vcenv, sv uint64) bool { return sv&m == cf(e) }
			case cv.isInt:
				m := vmask(maxi(subj.width, 1))
				match = func(e *vcenv, sv uint64) bool { return sv == cf(e)&m }
			default:
				match = func(e *vcenv, sv uint64) bool { return sv == cf(e) }
			}
			va.matches = append(va.matches, match)
		}
		arms = append(arms, va)
	}
	sf := subj.fn
	return func(e *vcenv) {
		e.s.tick()
		sv := sf(e)
		for i := range arms {
			for _, match := range arms[i].matches {
				if match(e, sv) {
					for _, f := range arms[i].body {
						f(e)
					}
					return
				}
			}
		}
		if hasOthers {
			for _, f := range others {
				f(e)
			}
		}
	}
}

// ---------------------------------------------------------------- entry points

// compileProcess classifies and compiles one process body, returning
// nil when any construct falls outside the compilable subset.
func compileProcess(s *Simulator, inst *Instance, ps *vhdl.ProcessStmt) (prog *vprocProg) {
	if len(ps.Sens) == 0 || len(ps.Decls) != 0 {
		return nil
	}
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
		case errNoCompile, runtimeFault:
			prog = nil
		default:
			panic(r)
		}
	}()
	c := newVcompiler(s, inst)
	body := c.compileStmts(ps.Body)
	return &vprocProg{slots: c.names, guards: c.guardList(), body: body}
}

// progForProcess memoizes process compilation on the entity template
// (shared by the template's instances; a nil entry is the
// negative-classification cache).
func (s *Simulator) progForProcess(inst *Instance, ps *vhdl.ProcessStmt) *vprocProg {
	tmpl := inst.tmpl
	if tmpl == nil {
		return compileProcess(s, inst, ps)
	}
	if tmpl.progs == nil {
		tmpl.progs = make(map[*vhdl.ProcessStmt]*vprocProg)
	}
	prog, tried := tmpl.progs[ps]
	if !tried {
		prog = compileProcess(s, inst, ps)
		tmpl.progs[ps] = prog
	}
	return prog
}

// bindProcProg resolves a template program's slots against one
// instance, producing the runtime environment for its machine.
func bindProcProg(s *Simulator, inst *Instance, prog *vprocProg) *vcenv {
	e := &vcenv{s: s, sigs: make([]*Signal, len(prog.slots))}
	for i, nm := range prog.slots {
		e.sigs[i] = inst.Signals[nm]
	}
	return e
}

// compileConc classifies and compiles one concurrent assignment:
// every waveform must be zero-delay onto one static target with
// compilable condition and value.
func compileConc(s *Simulator, bc *boundConc) (prog *vconcProg) {
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
		case errNoCompile, runtimeFault:
			prog = nil
		default:
			panic(r)
		}
	}()
	c := newVcompiler(s, bc.scope)
	tgt := c.compileTarget(bc.ca.Target)
	var waves []vwave
	for i := range bc.ca.Waves {
		w := &bc.ca.Waves[i]
		if w.AfterNs != nil {
			bail()
		}
		var cond func(*vcenv) uint64
		if w.Cond != nil {
			cond = c.compileExpr(w.Cond, 0).fn
		}
		waves = append(waves, vwave{cond: cond, val: c.compileExpr(w.Value, tgt.width).fn})
	}
	p := &vconcProg{guards: c.guardList(), waves: waves, target: tgt}
	p.sigs = make([]*Signal, len(c.names))
	for i, nm := range c.names {
		p.sigs[i] = bc.scope.Signals[nm]
	}
	return p
}

// run executes one compiled concurrent-assignment update: the first
// wave whose condition holds schedules; like the interpreter, a
// no-match update does nothing.
func (p *vconcProg) run(e *vcenv) {
	for i := range p.waves {
		w := &p.waves[i]
		if w.cond != nil && w.cond(e) == 0 {
			continue
		}
		p.target.schedule(e, w.val(e))
		return
	}
}

// concProgFor lazily compiles (once per design, with a negative cache)
// the i-th concurrent assignment.
func (d *Design) concProgFor(s *Simulator, i int) *vconcProg {
	if d.concTried == nil {
		d.concTried = make([]bool, len(d.concAssigns))
		d.concProgs = make([]*vconcProg, len(d.concAssigns))
	}
	if !d.concTried[i] {
		d.concTried[i] = true
		d.concProgs[i] = compileConc(s, &d.concAssigns[i])
	}
	return d.concProgs[i]
}
