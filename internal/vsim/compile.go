package vsim

import (
	"errors"
	"sort"

	"repro/internal/hdl"
	"repro/internal/verilog"
)

// Compiled two-state fast path (the Verilator strategy, scoped to this
// interpreter's semantics). After elaboration, always-blocks and
// continuous assignments whose statements and expressions fall inside a
// provably two-state subset are specialized into flat Go closures
// operating on single-plane uint64 words: no hdl.Vector plane algebra,
// no frame-stack machine, no per-execution natWidth recomputation —
// widths, parameter values, slot bindings, and case-pattern masks are
// all resolved at compile time.
//
// Byte-identity with the 4-state interpreter is the design invariant,
// achieved by construction rather than by approximation:
//
//   - Compiled code never bypasses the interpreter's commit protocol.
//     Every write goes through setSignal (same Equal short-circuit, same
//     vcdChange, same watcher Notify) or through kernel NBA records with
//     the same Apply hooks and the same MSB-first slicing order, so
//     event ordering, VCD edges, and watcher wakeups are identical.
//   - Sensitivity, scheduling, and process lifecycle stay on the
//     interpreter's machinery (procMachine.topReg/armed, rearmWait);
//     only the body execution between two arms is specialized.
//   - Every compiled statement charges the statement budget exactly
//     where exec() would (one tick per statement entry), so budget
//     exhaustion faults at the same statement in either backend.
//   - Expression closures mirror evalCtx's context-width propagation
//     rules statically: each closure returns the value the interpreter
//     would produce, at a width computed by the same rules, restricted
//     to inputs the guard has proven fully known.
//
// The guard is the fallback seam: before running a compiled body, every
// signal the body reads is classified with hdl.Known64. Any X/Z (or a
// wide value that escaped eligibility — impossible by construction, but
// the same check) defers this activation to the interpreter, which
// shares all state with the compiled path, so execution can bounce
// between backends per activation with no divergence. Eligible bodies
// contain no delays or waits, so the interpreter fallback always runs
// to completion without suspending.
//
// Programs for always-blocks are compiled once per module template
// (template.go) and keyed by the always-block's AST pointer: every
// instance of a template shares widths and parameter values, so the
// slot-addressed program is instance-independent and serves every
// same-key instance and every re-run of the design. Continuous
// assignments bind cross-instance scopes, so their programs capture
// *Signal pointers directly and are cached per Design (signals persist
// across Reset).

// errNoCompile marks an always-block/assignment as outside the
// compiled subset; the caller falls back to the interpreter for the
// whole process. It carries no detail: classification is not an error,
// and the interpreter remains the semantics of record.
var errNoCompile = errors.New("not compilable")

// cenv is the per-run binding of a compiled program: the slot table
// resolved to this instance's signals plus the simulator the
// activation runs under. Compiled closures receive it as their only
// argument, so programs themselves stay shareable across instances
// and runs.
type cenv struct {
	s    *Simulator
	sigs []*Signal
}

// cexpr is one compiled expression: a closure returning the value the
// interpreter's evalCtx would produce (masked to width), the statically
// mirrored result width, and whether the expression is a compile-time
// constant (reads no signals; fn(nil) is safe).
type cexpr struct {
	fn    func(e *cenv) uint64
	width int
	con   bool
}

// stepFn is one compiled statement.
type stepFn func(e *cenv)

// cpart is one primitive assignment destination, slot-addressed. It is
// the compiled form of target: parts apply MSB-first and !ok parts
// consume width but discard the write, exactly as applyTargets does.
type cpart struct {
	slot  int
	lo    int
	width int
	whole bool // writes the full signal (lo == 0 && width == sig.Width)
	ok    bool
}

// procProg is a compiled always-block body, shared per module template.
type procProg struct {
	slots  []string // slot -> local signal name, resolved per instance at bind
	guards []int    // slots read by the body; all must classify two-state
	body   stepFn
}

// caProg is a compiled continuous assignment, cached per Design with
// directly captured signals (assignments bind two instance scopes, so
// slot-by-name does not apply).
type caProg struct {
	sigs   []*Signal
	guards []int
	rhs    cexpr
	parts  []cpart
	total  int
}

// ready classifies every guarded slot; false defers the activation to
// the interpreter.
func (e *cenv) ready(guards []int) bool {
	for _, gi := range guards {
		if _, ok := e.sigs[gi].Val.Known64(); !ok {
			return false
		}
	}
	return true
}

// applyParts commits a computed value through the interpreter's write
// protocol, mirroring applyTargets: MSB-first slicing, out-of-range
// parts discarded, whole-signal writes direct and partial writes
// through SetSlice on the current 4-state value.
func applyParts(e *cenv, parts []cpart, total int, v uint64) {
	hi := total
	for i := range parts {
		p := &parts[i]
		lo := hi - p.width
		hi = lo
		if !p.ok {
			continue
		}
		sig := e.sigs[p.slot]
		pv := hdl.FromUint(v>>uint(lo), p.width)
		if p.whole {
			e.s.setSignal(sig, pv)
		} else {
			e.s.setSignal(sig, sig.Val.SetSlice(p.lo, pv))
		}
	}
}

// scheduleParts mirrors scheduleNBA: one pooled kernel record per part,
// sliced MSB-first at schedule time.
func scheduleParts(e *cenv, parts []cpart, total int, v uint64) {
	hi := total
	for i := range parts {
		p := &parts[i]
		lo := hi - p.width
		hi = lo
		if !p.ok {
			continue
		}
		r := e.s.kernel.NBAPut()
		r.Sig = e.sigs[p.slot]
		r.Val = hdl.FromUint(v>>uint(lo), p.width)
		r.Lo = p.lo
		r.Width = p.width
		r.Apply = e.s.nbaVec
	}
}

// wmask returns the low-w-bit mask (w in 1..64).
func wmask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(w) - 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sext sign-extends the low w bits of u (Int() on a known w-bit vector).
func sext(u uint64, w int) int64 {
	if w < 64 && u&(uint64(1)<<uint(w-1)) != 0 {
		u |= ^uint64(0) << uint(w)
	}
	return int64(u)
}

// compiler builds one program. It resolves names against inst and
// interns signals into slots — by local name in template mode (always
// blocks: the program outlives the instance) or by signal pointer in
// direct mode (continuous assignments: the program is design-scoped).
type compiler struct {
	s      *Simulator
	inst   *Instance
	byName bool

	names   []string
	nameIdx map[string]int

	sigs   []*Signal
	sigIdx map[*Signal]int

	reads map[int]struct{}
}

func newCompiler(s *Simulator, inst *Instance, byName bool) *compiler {
	return &compiler{s: s, inst: inst, byName: byName, reads: map[int]struct{}{}}
}

func (c *compiler) slotOf(sig *Signal) int {
	if c.byName {
		if i, ok := c.nameIdx[sig.Local]; ok {
			return i
		}
		if c.nameIdx == nil {
			c.nameIdx = map[string]int{}
		}
		i := len(c.names)
		c.names = append(c.names, sig.Local)
		c.nameIdx[sig.Local] = i
		return i
	}
	if i, ok := c.sigIdx[sig]; ok {
		return i
	}
	if c.sigIdx == nil {
		c.sigIdx = map[*Signal]int{}
	}
	i := len(c.sigs)
	c.sigs = append(c.sigs, sig)
	c.sigIdx[sig] = i
	return i
}

// readSlot interns a signal the program reads: it joins the guard set.
func (c *compiler) readSlot(sig *Signal) int {
	i := c.slotOf(sig)
	c.reads[i] = struct{}{}
	return i
}

func (c *compiler) guardList() []int {
	gs := make([]int, 0, len(c.reads))
	for i := range c.reads {
		gs = append(gs, i)
	}
	sort.Ints(gs)
	return gs
}

// constFold compiles e self-determined and returns its constant value;
// errNoCompile when e reads signals or is otherwise outside the subset.
func (c *compiler) constFold(e verilog.Expr) (uint64, int, error) {
	ce, err := c.compileExpr(e, 0)
	if err != nil {
		return 0, 0, err
	}
	if !ce.con {
		return 0, 0, errNoCompile
	}
	return ce.fn(nil), ce.width, nil
}

// constIndexValue mirrors evalIndexValue for compile-time-constant
// index expressions, honouring signedness.
func (c *compiler) constIndexValue(e verilog.Expr) (int64, error) {
	u, w, err := c.constFold(e)
	if err != nil {
		return 0, err
	}
	if c.signedC(e) {
		return sext(u, w), nil
	}
	if u > 1<<31 {
		// The interpreter classifies this "not known" and X-fills;
		// keep that behaviour by interpreting.
		return 0, errNoCompile
	}
	return int64(u), nil
}

// natWC statically mirrors Simulator.natWidth. It errs where natWidth
// would consult runtime state (dynamic replication counts or part-select
// bounds, system functions).
func (c *compiler) natWC(e verilog.Expr) (int, error) {
	switch x := e.(type) {
	case *verilog.Number:
		return x.Value.Width(), nil
	case *verilog.StringLit:
		if len(x.Value) == 0 {
			return 8, nil
		}
		return 8 * len(x.Value), nil
	case *verilog.Ident:
		sig, pv, kind := c.inst.lookup(x.Name)
		switch kind {
		case 1:
			return sig.Width, nil
		case 2:
			return pv.Width(), nil
		}
		return 0, errNoCompile // undeclared: interpreter faults
	case *verilog.Unary:
		switch x.Op {
		case "~", "-", "+":
			return c.natWC(x.X)
		}
		return 1, nil
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			l, err := c.natWC(x.L)
			if err != nil {
				return 0, err
			}
			r, err := c.natWC(x.R)
			if err != nil {
				return 0, err
			}
			return hdlMax(l, r), nil
		case "<<", ">>", "<<<", ">>>", "**":
			return c.natWC(x.L)
		}
		return 1, nil
	case *verilog.Ternary:
		t, err := c.natWC(x.Then)
		if err != nil {
			return 0, err
		}
		f, err := c.natWC(x.Else)
		if err != nil {
			return 0, err
		}
		return hdlMax(t, f), nil
	case *verilog.ConcatExpr:
		total := 0
		for _, p := range x.Parts {
			w, err := c.natWC(p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *verilog.ReplicateExpr:
		n, _, err := c.constFold(x.Count)
		if err != nil {
			return 0, err
		}
		if n > 4096 {
			return 0, errNoCompile // interpreter faults on evaluation
		}
		w, err := c.natWC(x.Value)
		if err != nil {
			return 0, err
		}
		return int(n) * w, nil
	case *verilog.Index:
		if base, ok := x.Base.(*verilog.Ident); ok {
			if sig, _, kind := c.inst.lookup(base.Name); kind == 1 && sig.IsMem {
				return sig.Width, nil
			}
		}
		return 1, nil
	case *verilog.PartSelect:
		m, err := c.constIndexValue(x.MSB)
		if err != nil {
			return 0, err
		}
		l, err := c.constIndexValue(x.LSB)
		if err != nil {
			return 0, err
		}
		w := int(m - l)
		if w < 0 {
			w = -w
		}
		return w + 1, nil
	}
	return 0, errNoCompile
}

// signedC statically mirrors Simulator.exprSigned.
func (c *compiler) signedC(e verilog.Expr) bool {
	switch x := e.(type) {
	case *verilog.Number:
		return x.Signed
	case *verilog.Ident:
		sig, _, kind := c.inst.lookup(x.Name)
		if kind == 1 {
			return sig.Signed
		}
		return false
	case *verilog.Unary:
		switch x.Op {
		case "~", "-", "+":
			return c.signedC(x.X)
		}
		return false
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "**":
			return c.signedC(x.L) && c.signedC(x.R)
		}
		return false
	case *verilog.Ternary:
		return c.signedC(x.Then) && c.signedC(x.Else)
	case *verilog.SysFuncCall:
		return x.Name == "$signed"
	}
	return false
}

// compileExpr builds the closure mirror of evalCtx(e, ctx). Every
// intermediate width must fit a single uint64 word; anything wider, any
// value that can be X/Z with known inputs (division by zero, **), and
// any construct whose width depends on runtime state is rejected.
func (c *compiler) compileExpr(e verilog.Expr, ctx int) (cexpr, error) {
	if ctx > 64 {
		return cexpr{}, errNoCompile
	}
	switch x := e.(type) {
	case *verilog.Number:
		u, ok := x.Value.Known64()
		if !ok {
			return cexpr{}, errNoCompile
		}
		w := x.Value.Width()
		if ctx > w {
			w = ctx
		}
		return cexpr{fn: func(*cenv) uint64 { return u }, width: w, con: true}, nil
	case *verilog.StringLit:
		// Packed ASCII, mirroring evalCtx's StringLit lowering.
		w := 8 * len(x.Value)
		if w == 0 {
			w = 8
		}
		if w > 64 {
			return cexpr{}, errNoCompile
		}
		var u uint64
		for i := 0; i < len(x.Value); i++ {
			u |= uint64(x.Value[len(x.Value)-1-i]) << uint(i*8)
		}
		return cexpr{fn: func(*cenv) uint64 { return u }, width: w, con: true}, nil
	case *verilog.Ident:
		sig, pv, kind := c.inst.lookup(x.Name)
		switch kind {
		case 1:
			if sig.IsMem || sig.Width > 64 {
				return cexpr{}, errNoCompile
			}
			w := sig.Width
			if ctx > w {
				w = ctx
			}
			slot := c.readSlot(sig)
			return cexpr{fn: func(e *cenv) uint64 {
				u, _ := e.sigs[slot].Val.Known64()
				return u
			}, width: w}, nil
		case 2:
			u, ok := pv.Known64()
			if !ok {
				return cexpr{}, errNoCompile
			}
			w := pv.Width()
			if ctx > w {
				w = ctx
			}
			return cexpr{fn: func(*cenv) uint64 { return u }, width: w, con: true}, nil
		}
		return cexpr{}, errNoCompile
	case *verilog.Unary:
		return c.compileUnary(x, ctx)
	case *verilog.Binary:
		return c.compileBinary(x, ctx)
	case *verilog.Ternary:
		tn, err := c.natWC(x.Then)
		if err != nil {
			return cexpr{}, err
		}
		en, err := c.natWC(x.Else)
		if err != nil {
			return cexpr{}, err
		}
		branchW := hdlMax(ctx, hdlMax(tn, en))
		cond, err := c.compileExpr(x.Cond, 0)
		if err != nil {
			return cexpr{}, err
		}
		t, err := c.compileExpr(x.Then, branchW)
		if err != nil {
			return cexpr{}, err
		}
		f, err := c.compileExpr(x.Else, branchW)
		if err != nil {
			return cexpr{}, err
		}
		if t.width != f.width {
			// The taken branch determines the result width at runtime;
			// a static mirror needs both branches to agree.
			return cexpr{}, errNoCompile
		}
		cf, tf, ff := cond.fn, t.fn, f.fn
		return cexpr{fn: func(e *cenv) uint64 {
			if cf(e) != 0 {
				return tf(e)
			}
			return ff(e)
		}, width: t.width, con: cond.con && t.con && f.con}, nil
	case *verilog.ConcatExpr:
		parts := make([]cexpr, 0, len(x.Parts))
		total := 0
		con := true
		for _, p := range x.Parts {
			ce, err := c.compileExpr(p, 0)
			if err != nil {
				return cexpr{}, err
			}
			parts = append(parts, ce)
			total += ce.width
			con = con && ce.con
		}
		if total == 0 || total > 64 {
			return cexpr{}, errNoCompile
		}
		return cexpr{fn: func(e *cenv) uint64 {
			var u uint64
			for i := range parts { // parts[0] is the MSB group
				u = u<<uint(parts[i].width) | parts[i].fn(e)&wmask(parts[i].width)
			}
			return u
		}, width: total, con: con}, nil
	case *verilog.ReplicateExpr:
		n, _, err := c.constFold(x.Count)
		if err != nil {
			return cexpr{}, err
		}
		if n < 1 || n > 4096 {
			// n == 0 yields a degenerate X scalar; n > 4096 faults.
			return cexpr{}, errNoCompile
		}
		v, err := c.compileExpr(x.Value, 0)
		if err != nil {
			return cexpr{}, err
		}
		total := int(n) * v.width
		if total > 64 {
			return cexpr{}, errNoCompile
		}
		cnt, vw, vf := int(n), v.width, v.fn
		return cexpr{fn: func(e *cenv) uint64 {
			bits := vf(e) & wmask(vw)
			var u uint64
			for i := 0; i < cnt; i++ {
				u = u<<uint(vw) | bits
			}
			return u
		}, width: total, con: v.con}, nil
	case *verilog.Index:
		return c.compileIndex(x)
	case *verilog.PartSelect:
		return c.compilePartSelect(x)
	}
	return cexpr{}, errNoCompile
}

func (c *compiler) compileUnary(x *verilog.Unary, ctx int) (cexpr, error) {
	switch x.Op {
	case "~", "-", "+":
		nw, err := c.natWC(x.X)
		if err != nil {
			return cexpr{}, err
		}
		w := hdlMax(ctx, nw)
		sub, err := c.compileExpr(x.X, w)
		if err != nil {
			return cexpr{}, err
		}
		sw, sf := sub.width, sub.fn
		var fn func(e *cenv) uint64
		switch x.Op {
		case "~":
			fn = func(e *cenv) uint64 { return ^sf(e) & wmask(sw) }
		case "-":
			fn = func(e *cenv) uint64 { return -sf(e) & wmask(sw) }
		default:
			fn = sf
		}
		return cexpr{fn: fn, width: sw, con: sub.con}, nil
	case "!", "&", "|", "^", "~&", "~|", "~^", "^~":
		sub, err := c.compileExpr(x.X, 0)
		if err != nil {
			return cexpr{}, err
		}
		sw, sf := sub.width, sub.fn
		var fn func(e *cenv) uint64
		switch x.Op {
		case "!":
			fn = func(e *cenv) uint64 { return b2u(sf(e) == 0) }
		case "&":
			fn = func(e *cenv) uint64 { return b2u(sf(e) == wmask(sw)) }
		case "|":
			fn = func(e *cenv) uint64 { return b2u(sf(e) != 0) }
		case "^":
			fn = func(e *cenv) uint64 { return uint64(popcount(sf(e)) & 1) }
		case "~&":
			fn = func(e *cenv) uint64 { return b2u(sf(e) != wmask(sw)) }
		case "~|":
			fn = func(e *cenv) uint64 { return b2u(sf(e) == 0) }
		default: // ~^ ^~
			fn = func(e *cenv) uint64 { return uint64(popcount(sf(e))&1) ^ 1 }
		}
		return cexpr{fn: fn, width: 1, con: sub.con}, nil
	}
	return cexpr{}, errNoCompile
}

func popcount(u uint64) int {
	n := 0
	for u != 0 {
		u &= u - 1
		n++
	}
	return n
}

func (c *compiler) compileBinary(x *verilog.Binary, ctx int) (cexpr, error) {
	switch x.Op {
	case "+", "-", "*", "&", "|", "^", "~^", "^~":
		ln, err := c.natWC(x.L)
		if err != nil {
			return cexpr{}, err
		}
		rn, err := c.natWC(x.R)
		if err != nil {
			return cexpr{}, err
		}
		w := hdlMax(ctx, hdlMax(ln, rn))
		l, err := c.compileExpr(x.L, w)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(x.R, w)
		if err != nil {
			return cexpr{}, err
		}
		// The hdl op widths follow the *operand* widths (max), which can
		// be below w when an operand ignores context (selects, concats).
		rw := hdlMax(l.width, r.width)
		if rw > 64 {
			return cexpr{}, errNoCompile
		}
		lf, rf := l.fn, r.fn
		var fn func(e *cenv) uint64
		switch x.Op {
		case "+":
			fn = func(e *cenv) uint64 { return (lf(e) + rf(e)) & wmask(rw) }
		case "-":
			fn = func(e *cenv) uint64 { return (lf(e) - rf(e)) & wmask(rw) }
		case "*":
			fn = func(e *cenv) uint64 { return lf(e) * rf(e) & wmask(rw) }
		case "&":
			fn = func(e *cenv) uint64 { return lf(e) & rf(e) }
		case "|":
			fn = func(e *cenv) uint64 { return lf(e) | rf(e) }
		case "^":
			fn = func(e *cenv) uint64 { return lf(e) ^ rf(e) }
		default: // ~^ ^~
			fn = func(e *cenv) uint64 { return ^(lf(e) ^ rf(e)) & wmask(rw) }
		}
		return cexpr{fn: fn, width: rw, con: l.con && r.con}, nil
	case "<<", "<<<", ">>", ">>>":
		ln, err := c.natWC(x.L)
		if err != nil {
			return cexpr{}, err
		}
		w := hdlMax(ctx, ln)
		l, err := c.compileExpr(x.L, w)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(x.R, 0)
		if err != nil {
			return cexpr{}, err
		}
		lw, lf, rf := l.width, l.fn, r.fn
		var fn func(e *cenv) uint64
		switch x.Op {
		case "<<", "<<<":
			fn = func(e *cenv) uint64 {
				n := rf(e)
				if n >= 64 {
					return 0
				}
				return lf(e) << n & wmask(lw)
			}
		case ">>":
			fn = func(e *cenv) uint64 {
				n := rf(e)
				if n >= 64 {
					return 0
				}
				return lf(e) >> n
			}
		default: // >>> mirrors Vector.AShr's inline path
			fn = func(e *cenv) uint64 {
				lv := lf(e)
				sh := rf(e)
				if sh > uint64(lw) {
					sh = uint64(lw)
				}
				out := lv >> sh
				if sh > 0 && lv>>uint(lw-1)&1 != 0 {
					out = (out | ^uint64(0)<<(uint64(lw)-sh)) & wmask(lw)
				}
				return out
			}
		}
		return cexpr{fn: fn, width: lw, con: l.con && r.con}, nil
	case "&&", "||":
		l, err := c.compileExpr(x.L, 0)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(x.R, 0)
		if err != nil {
			return cexpr{}, err
		}
		lf, rf := l.fn, r.fn
		var fn func(e *cenv) uint64
		if x.Op == "&&" {
			fn = func(e *cenv) uint64 { return b2u(lf(e) != 0 && rf(e) != 0) }
		} else {
			fn = func(e *cenv) uint64 { return b2u(lf(e) != 0 || rf(e) != 0) }
		}
		return cexpr{fn: fn, width: 1, con: l.con && r.con}, nil
	case "==", "!=", "===", "!==":
		// Known values compare identically under logical and case
		// equality (no X/Z bits to distinguish them).
		ln, err := c.natWC(x.L)
		if err != nil {
			return cexpr{}, err
		}
		rn, err := c.natWC(x.R)
		if err != nil {
			return cexpr{}, err
		}
		w := hdlMax(ln, rn)
		l, err := c.compileExpr(x.L, w)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(x.R, w)
		if err != nil {
			return cexpr{}, err
		}
		lf, rf := l.fn, r.fn
		neg := x.Op == "!=" || x.Op == "!=="
		return cexpr{fn: func(e *cenv) uint64 {
			return b2u((lf(e) == rf(e)) != neg)
		}, width: 1, con: l.con && r.con}, nil
	case "<", "<=", ">", ">=":
		if c.signedC(x.L) && c.signedC(x.R) {
			l, err := c.compileExpr(x.L, 0)
			if err != nil {
				return cexpr{}, err
			}
			r, err := c.compileExpr(x.R, 0)
			if err != nil {
				return cexpr{}, err
			}
			lw, rw, lf, rf := l.width, r.width, l.fn, r.fn
			op := x.Op
			return cexpr{fn: func(e *cenv) uint64 {
				li, ri := sext(lf(e), lw), sext(rf(e), rw)
				switch op {
				case "<":
					return b2u(li < ri)
				case "<=":
					return b2u(li <= ri)
				case ">":
					return b2u(li > ri)
				default:
					return b2u(li >= ri)
				}
			}, width: 1, con: l.con && r.con}, nil
		}
		ln, err := c.natWC(x.L)
		if err != nil {
			return cexpr{}, err
		}
		rn, err := c.natWC(x.R)
		if err != nil {
			return cexpr{}, err
		}
		w := hdlMax(ln, rn)
		l, err := c.compileExpr(x.L, w)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(x.R, w)
		if err != nil {
			return cexpr{}, err
		}
		lf, rf := l.fn, r.fn
		op := x.Op
		return cexpr{fn: func(e *cenv) uint64 {
			lu, ru := lf(e), rf(e)
			switch op {
			case "<":
				return b2u(lu < ru)
			case "<=":
				return b2u(lu <= ru)
			case ">":
				return b2u(lu > ru)
			default:
				return b2u(lu >= ru)
			}
		}, width: 1, con: l.con && r.con}, nil
	}
	// "/", "%", "**" can produce X from known inputs (zero divisor,
	// oversized exponent); unknown operators X-fill. All interpret.
	return cexpr{}, errNoCompile
}

func (c *compiler) compileIndex(x *verilog.Index) (cexpr, error) {
	base, ok := x.Base.(*verilog.Ident)
	if !ok {
		return cexpr{}, errNoCompile
	}
	sig, pv, kind := c.inst.lookup(base.Name)
	i64, err := c.constIndexValue(x.Idx)
	if err != nil {
		return cexpr{}, err
	}
	switch kind {
	case 1:
		if sig.IsMem || sig.Width > 64 {
			return cexpr{}, errNoCompile
		}
		bit, inRange := sig.declIndexToBit(int(i64))
		if !inRange {
			return cexpr{}, errNoCompile // interpreter X-fills
		}
		slot := c.readSlot(sig)
		b := uint(bit)
		return cexpr{fn: func(e *cenv) uint64 {
			u, _ := e.sigs[slot].Val.Known64()
			return u >> b & 1
		}, width: 1}, nil
	case 2:
		l := pv.Bit(int(i64))
		if l != hdl.L0 && l != hdl.L1 {
			return cexpr{}, errNoCompile
		}
		u := b2u(l == hdl.L1)
		return cexpr{fn: func(*cenv) uint64 { return u }, width: 1, con: true}, nil
	}
	return cexpr{}, errNoCompile
}

func (c *compiler) compilePartSelect(x *verilog.PartSelect) (cexpr, error) {
	base, ok := x.Base.(*verilog.Ident)
	if !ok {
		return cexpr{}, errNoCompile
	}
	sig, pv, kind := c.inst.lookup(base.Name)
	m64, err := c.constIndexValue(x.MSB)
	if err != nil {
		return cexpr{}, err
	}
	l64, err := c.constIndexValue(x.LSB)
	if err != nil {
		return cexpr{}, err
	}
	switch kind {
	case 1:
		if sig.IsMem || sig.Width > 64 {
			return cexpr{}, errNoCompile
		}
		loBit, ok1 := sig.declIndexToBit(int(l64))
		hiBit, ok2 := sig.declIndexToBit(int(m64))
		if !ok1 || !ok2 {
			return cexpr{}, errNoCompile // interpreter X-fills
		}
		if loBit > hiBit {
			loBit, hiBit = hiBit, loBit
		}
		w := hiBit - loBit + 1
		slot := c.readSlot(sig)
		lo, m := uint(loBit), wmask(w)
		return cexpr{fn: func(e *cenv) uint64 {
			u, _ := e.sigs[slot].Val.Known64()
			return u >> lo & m
		}, width: w}, nil
	case 2:
		lo, hi := int(l64), int(m64)
		if lo > hi {
			lo, hi = hi, lo
		}
		s := pv.Slice(lo, hi-lo+1)
		u, known := s.Known64()
		if !known {
			return cexpr{}, errNoCompile
		}
		w := s.Width()
		return cexpr{fn: func(*cenv) uint64 { return u }, width: w, con: true}, nil
	}
	return cexpr{}, errNoCompile
}

// compileAssignTargets classifies and flattens a static LHS into slot
// parts. Resolution happens against the compiling instance; widths and
// offsets are template-invariant (same parameter valuation), so the
// parts apply to every instance of the template.
func (c *compiler) compileAssignTargets(lhs verilog.Expr) ([]cpart, int, error) {
	if !staticLHS(c.inst, lhs) {
		return nil, 0, errNoCompile
	}
	ts, total := c.s.resolveTargets(c.inst, lhs)
	if total > 64 {
		return nil, 0, errNoCompile
	}
	parts := make([]cpart, 0, len(ts))
	for _, t := range ts {
		if !t.ok {
			// Out-of-range static select: the interpreter discards the
			// write but still consumes the width slice.
			parts = append(parts, cpart{width: t.width})
			continue
		}
		if t.isMem || t.sig.Width > 64 {
			return nil, 0, errNoCompile
		}
		parts = append(parts, cpart{
			slot:  c.slotOf(t.sig),
			lo:    t.lo,
			width: t.width,
			whole: t.lo == 0 && t.width == t.sig.Width,
			ok:    true,
		})
	}
	return parts, total, nil
}

// compileStmt builds the closure mirror of exec(st). Each compiled
// statement charges one tick on entry, exactly as exec does, so the
// statement budget exhausts at the same point in either backend.
func (c *compiler) compileStmt(st verilog.Stmt) (stepFn, error) {
	switch x := st.(type) {
	case *verilog.Block:
		if len(x.Stmts) == 0 {
			return func(e *cenv) { e.s.tick() }, nil
		}
		steps := make([]stepFn, len(x.Stmts))
		for i, sub := range x.Stmts {
			sf, err := c.compileStmt(sub)
			if err != nil {
				return nil, err
			}
			steps[i] = sf
		}
		return func(e *cenv) {
			e.s.tick()
			for _, sf := range steps {
				sf(e)
			}
		}, nil
	case *verilog.If:
		cond, err := c.compileExpr(x.Cond, 0)
		if err != nil {
			return nil, err
		}
		then, err := c.compileStmt(x.Then)
		if err != nil {
			return nil, err
		}
		cf := cond.fn
		if x.Else == nil {
			return func(e *cenv) {
				e.s.tick()
				if cf(e) != 0 {
					then(e)
				}
			}, nil
		}
		els, err := c.compileStmt(x.Else)
		if err != nil {
			return nil, err
		}
		return func(e *cenv) {
			e.s.tick()
			if cf(e) != 0 {
				then(e)
			} else {
				els(e)
			}
		}, nil
	case *verilog.Case:
		return c.compileCase(x)
	case *verilog.Assign:
		parts, total, err := c.compileAssignTargets(x.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := c.compileExpr(x.RHS, total)
		if err != nil {
			return nil, err
		}
		rf := rhs.fn
		if x.Blocking {
			if len(parts) == 1 && parts[0].ok && parts[0].whole {
				slot, w := parts[0].slot, parts[0].width
				return func(e *cenv) {
					e.s.tick()
					e.s.setSignal(e.sigs[slot], hdl.FromUint(rf(e), w))
				}, nil
			}
			return func(e *cenv) {
				e.s.tick()
				applyParts(e, parts, total, rf(e))
			}, nil
		}
		return func(e *cenv) {
			e.s.tick()
			scheduleParts(e, parts, total, rf(e))
		}, nil
	case *verilog.Null:
		return func(e *cenv) { e.s.tick() }, nil
	}
	// Loops, delays, waits, system calls: interpreter territory.
	return nil, errNoCompile
}

// caseMatcher tests one compiled case pattern against the subject
// value (already zero-extended in its uint64).
type caseMatcher struct {
	match func(e *cenv, s uint64) bool
	body  stepFn
}

// compileCase mirrors execCase + caseMatches for known subjects.
// Literal patterns may carry X/Z bits: their per-bit wildcard/mismatch
// behaviour against a known subject collapses to a mask compare
// precomputed per case kind.
func (c *compiler) compileCase(x *verilog.Case) (stepFn, error) {
	subj, err := c.compileExpr(x.Expr, 0)
	if err != nil {
		return nil, err
	}
	var matchers []caseMatcher
	var deflt stepFn
	for i := range x.Items {
		item := &x.Items[i]
		body, err := c.compileStmt(item.Body)
		if err != nil {
			return nil, err
		}
		if item.Exprs == nil {
			deflt = body
			continue
		}
		for _, pat := range item.Exprs {
			m, err := c.compilePattern(pat, subj.width, x.Kind)
			if err != nil {
				return nil, err
			}
			matchers = append(matchers, caseMatcher{match: m, body: body})
		}
	}
	sf := subj.fn
	return func(e *cenv) {
		e.s.tick()
		s := sf(e)
		for i := range matchers {
			if matchers[i].match(e, s) {
				matchers[i].body(e)
				return
			}
		}
		if deflt != nil {
			deflt(e)
		}
	}, nil
}

// compilePattern builds the match test for one case pattern against a
// known subject of width ws.
func (c *compiler) compilePattern(pat verilog.Expr, ws int, kind verilog.CaseKind) (func(e *cenv, s uint64) bool, error) {
	if num, isLit := pat.(*verilog.Number); isLit {
		pv := num.Value
		if pv.Width() > 64 {
			return nil, errNoCompile
		}
		w := ws
		if pv.Width() > w {
			w = pv.Width()
		}
		// Per-bit classification over the compare width (the pattern
		// zero-extends with L0 above its own width, the known subject
		// contributes no X/Z).
		var pa, xm, zm uint64
		for i := 0; i < w; i++ {
			switch pv.Bit(i) { // out-of-range bits read L0 via Resize; Bit yields LX, so clamp below
			case hdl.L1:
				pa |= 1 << uint(i)
			case hdl.LX:
				if i < pv.Width() {
					xm |= 1 << uint(i)
				}
			case hdl.LZ:
				zm |= 1 << uint(i)
			}
		}
		var cmp uint64 // bits that must equal pa
		switch kind {
		case verilog.CaseZ:
			if xm != 0 {
				// An X pattern bit can never equal a known subject bit.
				return func(*cenv, uint64) bool { return false }, nil
			}
			cmp = wmask(w) &^ zm
		case verilog.CaseX:
			cmp = wmask(w) &^ (xm | zm)
		default:
			if xm|zm != 0 {
				return func(*cenv, uint64) bool { return false }, nil
			}
			cmp = wmask(w)
		}
		return func(_ *cenv, s uint64) bool { return (s^pa)&cmp == 0 }, nil
	}
	// Non-literal pattern: evaluates to a known value under the guard,
	// so every case kind reduces to equality at the common width.
	pe, err := c.compileExpr(pat, 0)
	if err != nil {
		return nil, err
	}
	pf := pe.fn
	return func(e *cenv, s uint64) bool { return s == pf(e) }, nil
}

// ------------------------------------------------------------ programs

// compileAlways builds the template-shared program for one always
// block, or nil when the body falls outside the compiled subset.
// Classification panics (bad assignment targets and the like) surface
// at interpretation time with their original messages.
func compileAlways(s *Simulator, inst *Instance, alw *verilog.AlwaysBlock) (prog *procProg) {
	defer func() {
		if r := recover(); r != nil {
			if _, isFault := r.(runtimeFault); isFault {
				prog = nil
				return
			}
			panic(r)
		}
	}()
	c := newCompiler(s, inst, true)
	body, err := c.compileStmt(alw.Body)
	if err != nil {
		return nil
	}
	return &procProg{slots: c.names, guards: c.guardList(), body: body}
}

// progForAlways returns the cached compiled program for alw under
// inst's module template, compiling on first demand. A nil cache entry
// records ineligibility so classification runs once per template.
// Templates belong to one design, which one run binds at a time, so no
// lock is needed.
func progForAlways(s *Simulator, inst *Instance, alw *verilog.AlwaysBlock) *procProg {
	t := inst.tmpl
	if t == nil {
		return nil
	}
	if t.progs == nil {
		t.progs = map[*verilog.AlwaysBlock]*procProg{}
	}
	if p, seen := t.progs[alw]; seen {
		return p
	}
	p := compileAlways(s, inst, alw)
	t.progs[alw] = p
	return p
}

// bindProg resolves a template program's slots against one instance.
func bindProg(s *Simulator, inst *Instance, p *procProg) *cenv {
	sigs := make([]*Signal, len(p.slots))
	for i, name := range p.slots {
		sigs[i] = inst.Signals[name]
	}
	return &cenv{s: s, sigs: sigs}
}

// compileContAssign builds the design-scoped program for one continuous
// assignment, or nil when ineligible. The RHS resolves in the
// assignment's rhsScope and the LHS in its lhsScope (port bindings
// cross instances), so signals are captured directly.
func compileContAssign(s *Simulator, a *boundAssign) (prog *caProg) {
	defer func() {
		if r := recover(); r != nil {
			if _, isFault := r.(runtimeFault); isFault {
				prog = nil
				return
			}
			panic(r)
		}
	}()
	c := newCompiler(s, a.lhsScope, false)
	parts, total, err := c.compileAssignTargets(a.lhs)
	if err != nil {
		return nil
	}
	c.inst = a.rhsScope
	rhs, err := c.compileExpr(a.rhs, total)
	if err != nil {
		return nil
	}
	return &caProg{sigs: c.sigs, guards: c.guardList(), rhs: rhs, parts: parts, total: total}
}
