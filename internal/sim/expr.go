package sim

import "repro/internal/hdl"

// Expr is one node of a lowered expression, the one run-time form of
// every expression both simulators evaluate. A front-end lowers each
// AST expression once, when it binds the run: a name becomes the value
// it reads, a constant, or a node that faults when evaluated; an
// operator becomes its op and hdl function; a Verilog node keeps its
// natural width and signedness, a VHDL node its integer tag. Eval then
// dispatches on the op alone.
//
// A Verilog context width flows down at run time as ctx (IEEE 1364
// §5.4). Natural widths are fixed at lowering, except where IEEE 1364
// forbids what the source says: a part-select with non-constant bounds
// and a replication with a non-constant count (Dyn). Their width is
// taken once per top-level evaluation, at the first query, so sizing
// stays one pass over the tree however deep it nests.
type Expr struct {
	Op     ExprOp
	Signed bool // Verilog: signed under IEEE 1364 typing; VHDL: integer-typed
	Dyn    bool // Verilog: the natural width depends on run-time values
	Const  bool // Verilog: literals and parameters under pure operators only
	Own    bool // a select declared by its value's own width (a VHDL variable's), not Hi and Lo
	gen    uint32
	W      int // Verilog: the natural width, when not Dyn

	A, B, C *Expr   // operands, in source order
	Args    []*Expr // a concatenation's parts; read-set-only operands of a fault

	Ref    *hdl.Vector // the value a load or select reads
	Hi, Lo int         // a select's declared left (MSB) and right bounds

	Fn1 func(hdl.Vector) hdl.Vector
	Fn2 func(l, r hdl.Vector) hdl.Vector

	Watch *WatchList                           // the signal a read set watches for this node
	Mem   interface{ MemWord(int) hdl.Vector } // a memory word read's memory
	Prev  *hdl.Vector                          // VHDL edge and event: the signal's previous value
	Stamp *uint64                              // and its change stamp (Kernel.ObserverSerial)
	Msg   string                               // the fault text

	dynW int // the Dyn width taken in evaluation gen
}

// ExprOp is what a node computes. X ops are shared, V ops follow
// Verilog's sizing rules and H ops VHDL's numeric_std rules.
type ExprOp uint8

const (
	XLoad       ExprOp = iota // *Ref: a signal's, a variable's or a constant value
	XFault                    // fault with Msg (a Dyn one is a part-select of a non-name)
	VLoad                     // *Ref, zero-extended to the context
	VUnaryCtx                 // Fn1 of A sized to max(ctx, W(A))
	VUnary                    // Fn1 of A self-determined
	VBinCtx                   // Fn2 of A and B sized to max(ctx, W(A), W(B))
	VShift                    // Fn2 of A sized to max(ctx, W(A)) and B self-determined
	VCompare                  // Fn2 of A and B sized to max(W(A), W(B))
	VBin                      // Fn2 of A and B self-determined
	VTernary                  // A ? B : C, branches sized to max(ctx, W(B), W(C)), bitwise merge on X
	VConcat                   // the concatenation of Args, self-determined
	VReplicate                // A copies of B
	VIndex                    // bit A of *Ref, declared Hi:Lo
	VIndexMem                 // word A of Mem, W bits
	VIndexExpr                // bit B of A
	VPart                     // bits A:B of *Ref, declared Hi:Lo
	VPartConst                // bits A:B of *Ref, a constant
	VSelectBad                // evaluate index A, or bounds A and B, then fault with Msg unless a bound is unknown
	VTime                     // $time, zero-extended to the context
	VRandom                   // $random, zero-extended to the context
	VClog2                    // $clog2(A), zero-extended to the context
	VSigned                   // A self-determined, sign-extended to the context
	VUnsigned                 // A self-determined, zero-extended to the context
	HUnary                    // Fn1 of A in the same context (nil Fn1: A)
	HAggregate                // (others => A) at the context width; faults with Msg without one
	HLogic                    // Fn2 of A and B resized to the wider
	HNum                      // Fn2 of A and B under the numeric_std width rule
	HMul                      // numeric_std "*" of a vector operand: a product as wide as both
	HCompare                  // Fn2 of A and B under the width rule, as a boolean
	HSlice                    // bits A to B of *Ref, declared Hi, Lo
	HResize                   // A resized to B bits; faults with Msg on a bad width
	HSignResize               // as HResize, sign-extending
	HRise                     // rising_edge of *Ref
	HFall                     // falling_edge of *Ref
	HEvent                    // 'event of the signal stamped in *Stamp
	HLength                   // the width of *Ref as an integer
)

// Eval evaluates e with context width ctx (0: self-determined).
func (r *Runtime) Eval(e *Expr, ctx int) hdl.Vector {
	r.gen++
	return r.eval(e, ctx)
}

// Truth reports whether e holds: a known 1 (or true).
func (r *Runtime) Truth(e *Expr) bool { return r.Eval(e, 0).ToBool() == hdl.L1 }

// Index evaluates e as an index: signed when e is, else a non-negative
// value (a 2-bit address holding 2 must not sign-extend to -2).
func (r *Runtime) Index(e *Expr) (int64, bool) {
	r.gen++
	return r.index(e)
}

func (r *Runtime) index(e *Expr) (int64, bool) {
	v := r.eval(e, 0)
	if e.Signed {
		return v.Int()
	}
	u, ok := v.Uint()
	if !ok || u > 1<<31 {
		return 0, false
	}
	return int64(u), true
}

func widen(v hdl.Vector, ctx int) hdl.Vector {
	if ctx > v.Width() {
		return v.Resize(ctx)
	}
	return v
}

func (r *Runtime) eval(e *Expr, ctx int) hdl.Vector {
	switch e.Op {
	case XLoad:
		return *e.Ref
	case VLoad:
		return widen(*e.Ref, ctx)
	case VUnaryCtx:
		return e.Fn1(r.eval(e.A, max(ctx, r.width(e.A))))
	case VUnary:
		return e.Fn1(r.eval(e.A, 0))
	case VBinCtx:
		w := max(ctx, r.width(e.A), r.width(e.B))
		return e.Fn2(r.eval(e.A, w), r.eval(e.B, w))
	case VShift:
		w := max(ctx, r.width(e.A))
		return e.Fn2(r.eval(e.A, w), r.eval(e.B, 0))
	case VCompare:
		w := max(r.width(e.A), r.width(e.B))
		return e.Fn2(r.eval(e.A, w), r.eval(e.B, w))
	case VBin:
		return e.Fn2(r.eval(e.A, 0), r.eval(e.B, 0))
	case VTernary:
		w := max(ctx, r.width(e.B), r.width(e.C))
		switch r.eval(e.A, 0).ToBool() {
		case hdl.L1:
			return r.eval(e.B, w)
		case hdl.L0:
			return r.eval(e.C, w)
		}
		t, f := r.eval(e.B, w), r.eval(e.C, w)
		w = max(t.Width(), f.Width())
		t, f = t.Resize(w), f.Resize(w)
		out := hdl.NewVector(w, hdl.LX)
		for i := range w {
			if tb := t.Bit(i); tb == f.Bit(i) && tb.IsKnown() {
				out.SetBit(i, tb)
			}
		}
		return out
	case VConcat:
		base := len(r.parts)
		for _, p := range e.Args {
			v := r.eval(p, 0)
			r.parts = append(r.parts, v)
		}
		v := hdl.Concat(r.parts[base:]...)
		clear(r.parts[base:])
		r.parts = r.parts[:base]
		return v
	case VReplicate:
		n, ok := r.eval(e.A, 0).Uint()
		if !ok || n > 4096 {
			panic(Fault{Msg: "bad replication count"})
		}
		return hdl.Replicate(int(n), r.eval(e.B, 0))
	case VIndex:
		i, ok := r.index(e.A)
		if !ok {
			return hdl.XFill(1)
		}
		hi, lo := e.declared()
		bit, in := DeclIndexToBit(hi, lo, int(i))
		if !in {
			return hdl.XFill(1)
		}
		return hdl.Scalar(e.Ref.Bit(bit))
	case VIndexMem:
		i, ok := r.index(e.A)
		if !ok {
			return hdl.XFill(e.W)
		}
		return e.Mem.MemWord(int(i))
	case VIndexExpr:
		v := r.eval(e.A, 0)
		i, ok := r.index(e.B)
		if !ok {
			return hdl.XFill(1)
		}
		return hdl.Scalar(v.Bit(int(i)))
	case VPart, HSlice:
		m, l, ok := r.bounds(e.A, e.B)
		if !ok {
			return hdl.XFill(1)
		}
		dh, dl := e.declared()
		hi, okH := DeclIndexToBit(dh, dl, m)
		lo, okL := DeclIndexToBit(dh, dl, l)
		if !okH || !okL {
			if e.Op == HSlice {
				return hdl.XFill(1)
			}
			return hdl.XFill(spanWidth(m, l))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.Ref.Slice(lo, hi-lo+1)
	case VPartConst:
		m, l, ok := r.bounds(e.A, e.B)
		if !ok {
			return hdl.XFill(1)
		}
		if l > m {
			m, l = l, m
		}
		return e.Ref.Slice(l, m-l+1)
	case VSelectBad:
		if e.B == nil {
			r.index(e.A)
		} else if _, _, ok := r.bounds(e.A, e.B); !ok {
			return hdl.XFill(1)
		}
		panic(Fault{Msg: e.Msg})
	case VTime:
		return widen(hdl.FromUint(uint64(r.Kernel.Now()), 64), ctx)
	case VRandom:
		// One stream per run, drawn in execution order.
		r.rng = r.rng*6364136223846793005 + 1442695040888963407
		return widen(hdl.FromUint(r.rng>>16, 32), ctx)
	case VClog2:
		n, ok := r.eval(e.A, 0).Uint()
		if !ok {
			return widen(hdl.XFill(32), ctx)
		}
		c := 0
		for c < 64 && uint64(1)<<c < n {
			c++
		}
		return widen(hdl.FromUint(uint64(c), 32), ctx)
	case VSigned:
		v := r.eval(e.A, 0)
		if ctx > v.Width() {
			return v.SignExtend(ctx)
		}
		return v
	case VUnsigned:
		return widen(r.eval(e.A, 0), ctx)
	case HUnary:
		v := r.eval(e.A, ctx)
		if e.Fn1 == nil {
			return v
		}
		return e.Fn1(v)
	case HAggregate:
		if ctx <= 0 {
			panic(Fault{Msg: e.Msg})
		}
		return hdl.NewVector(ctx, r.eval(e.A, 0).Bit(0))
	case HLogic:
		l, rv := r.eval(e.A, 0), r.eval(e.B, 0)
		w := max(l.Width(), rv.Width())
		return e.Fn2(l.Resize(w), rv.Resize(w))
	case HNum:
		return e.Fn2(r.numericPair(e))
	case HMul:
		l, rv := r.eval(e.A, 0), r.eval(e.B, 0)
		lv, rr := NumericPair(e.A.Signed, e.B.Signed, l, rv)
		// numeric_std "*" yields a product of width a'length+b'length.
		pw := l.Width() + rv.Width()
		if e.A.Signed {
			pw = 2 * rv.Width()
		} else if e.B.Signed {
			pw = 2 * l.Width()
		}
		return lv.Resize(pw).Mul(rr.Resize(pw))
	case HCompare:
		return hdl.FromBool(e.Fn2(r.numericPair(e)).Equal(hdl.FromBool(true)))
	case HResize, HSignResize:
		v := r.eval(e.A, 0)
		w, ok := r.eval(e.B, 0).Uint()
		if !ok || w == 0 || w > 1<<16 {
			panic(Fault{Msg: e.Msg})
		}
		if e.Op == HSignResize {
			return v.SignExtend(int(w))
		}
		return v.Resize(int(w))
	case HRise, HFall:
		if *e.Stamp != r.Kernel.DeltaSerial() {
			return hdl.FromBool(false)
		}
		cur, prev := e.Ref.Bit(0), e.Prev.Bit(0)
		if e.Op == HRise {
			return hdl.FromBool(cur == hdl.L1 && prev == hdl.L0)
		}
		return hdl.FromBool(cur == hdl.L0 && prev == hdl.L1)
	case HEvent:
		return hdl.FromBool(*e.Stamp == r.Kernel.DeltaSerial())
	case HLength:
		return hdl.FromInt(int64(e.Ref.Width()), 32)
	default: // XFault
		panic(Fault{Msg: e.Msg})
	}
}

// declared returns a select's declared bounds: Hi and Lo, or for a
// VHDL variable its value's width-1 downto 0.
func (e *Expr) declared() (hi, lo int) {
	if e.Own {
		return e.Ref.Width() - 1, 0
	}
	return e.Hi, e.Lo
}

// bounds evaluates a part-select's or slice's bounds as indexes.
func (r *Runtime) bounds(a, b *Expr) (m, l int, ok bool) {
	a64, ok1 := r.index(a)
	b64, ok2 := r.index(b)
	return int(a64), int(b64), ok1 && ok2
}

func spanWidth(m, l int) int {
	if m < l {
		m, l = l, m
	}
	return m - l + 1
}

// numericPair evaluates a VHDL binary node's operands under the
// numeric_std width rule.
func (r *Runtime) numericPair(e *Expr) (hdl.Vector, hdl.Vector) {
	l, rv := r.eval(e.A, 0), r.eval(e.B, 0)
	return NumericPair(e.A.Signed, e.B.Signed, l, rv)
}

// NumericPair applies the numeric_std width rule to two values tagged
// integer or not: an integer adapts to the vector operand's width; two
// vectors meet at the larger width.
func NumericPair(lInt, rInt bool, l, r hdl.Vector) (hdl.Vector, hdl.Vector) {
	switch {
	case lInt && rInt:
		return l, r
	case lInt:
		return l.Resize(max(r.Width(), 1)), r
	case rInt:
		return l, r.Resize(max(l.Width(), 1))
	}
	w := max(l.Width(), r.Width())
	return l.Resize(w), r.Resize(w)
}

// width returns e's Verilog natural width, taking a Dyn width once per
// evaluation.
func (r *Runtime) width(e *Expr) int {
	if !e.Dyn {
		return e.W
	}
	if e.gen == r.gen {
		return e.dynW
	}
	var w int
	switch e.Op {
	case VPart, VPartConst, VSelectBad, XFault:
		w = r.partWidth(e)
	case VReplicate:
		n, ok := r.eval(e.A, 0).Uint()
		if !ok || n > 4096 {
			w = 1
		} else {
			w = int(n) * r.width(e.B)
		}
	case VBinCtx:
		w = max(r.width(e.A), r.width(e.B))
	case VTernary:
		w = max(r.width(e.B), r.width(e.C))
	case VConcat:
		for _, p := range e.Args {
			w += r.width(p)
		}
	default: // VUnaryCtx, VShift, VSigned, VUnsigned
		w = r.width(e.A)
	}
	e.gen, e.dynW = r.gen, w
	return w
}

// partWidth is a part-select's natural width from its bounds' values, 1
// when either is unknown.
func (r *Runtime) partWidth(e *Expr) int {
	m, ok1 := r.eval(e.A, 0).Int()
	l, ok2 := r.eval(e.B, 0).Int()
	if !ok1 || !ok2 {
		return 1
	}
	if m < l {
		m, l = l, m
	}
	return int(m-l) + 1
}

// PartWidth is the natural width of a part-select with constant bounds.
func (r *Runtime) PartWidth(e *Expr) int {
	r.gen++
	return r.partWidth(e)
}

// sensItem is one item of a wait site's sensitivity: the expression
// whose signals it watches and the edge it fires on.
type sensItem struct {
	E    *Expr
	Edge Edge
}

// AddSens appends one sensitivity item on edge per expression and
// returns the range of the items added so far since item from (-1: of
// these), for an OpWait or OpWaitUntil's Sens.
func (r *Runtime) AddSens(from int32, edge Edge, es ...*Expr) [2]int32 {
	if from < 0 {
		from = int32(len(r.sens))
	}
	for _, e := range es {
		r.sens = append(r.sens, sensItem{E: e, Edge: edge})
	}
	return [2]int32{from, int32(len(r.sens))}
}

// Place resolves the select of an assignment target declared hi:lo:
// the whole of it (a nil), bit a, or the part a:b (VHDL a to/downto b).
// An unknown or out-of-range select reports !ok and width 1, or for an
// out-of-range part with span set (Verilog) the width its bounds span.
func (r *Runtime) Place(a, b *Expr, hi, lo int, span bool) (ok bool, off, width int) {
	switch {
	case a == nil:
		return true, 0, spanWidth(hi, lo)
	case b == nil:
		i, known := r.Index(a)
		bit, in := DeclIndexToBit(hi, lo, int(i))
		if !known || !in {
			return false, 0, 1
		}
		return true, bit, 1
	}
	r.gen++
	m, l, known := r.bounds(a, b)
	if !known {
		return false, 0, 1
	}
	mb, okM := DeclIndexToBit(hi, lo, m)
	lb, okL := DeclIndexToBit(hi, lo, l)
	switch {
	case okM && okL:
		return true, min(mb, lb), spanWidth(mb, lb)
	case span:
		return false, 0, spanWidth(m, l)
	}
	return false, 0, 1
}

// Sample samples bit 0 of sensitivity item item, for its edge watchers.
func (r *Runtime) Sample(item int) hdl.Logic { return r.Eval(r.sens[item].E, 0).Bit(0) }

// Reads returns the watch lists of the signals es read, each once, in
// the order a depth-first walk first meets them. The slice is reused by
// the next call.
func (r *Runtime) Reads(es ...*Expr) []*WatchList {
	r.readMark++
	r.reads = r.reads[:0]
	for _, e := range es {
		r.appendReads(e)
	}
	return r.reads
}

func (r *Runtime) appendReads(e *Expr) {
	if e == nil {
		return
	}
	if w := e.Watch; w != nil && w.mark != r.readMark {
		w.mark = r.readMark
		r.reads = append(r.reads, w)
	}
	r.appendReads(e.A)
	r.appendReads(e.B)
	r.appendReads(e.C)
	for _, a := range e.Args {
		r.appendReads(a)
	}
}

// Const returns a pointer to a copy of constant v, for a node's Ref,
// from storage Reset keeps.
func (r *Runtime) Const(v hdl.Vector) *hdl.Vector {
	c := r.consts.Alloc()
	*c = v
	return c
}

// NewExpr returns a zero node with op op, from storage Reset keeps.
func (r *Runtime) NewExpr(op ExprOp) *Expr {
	e := r.exprs.Alloc()
	e.Op = op
	return e
}

// Exprs returns a list of n nodes to fill, from storage Reset keeps.
func (r *Runtime) Exprs(n int) []*Expr { return r.lists.Alloc(n) }

// Slab hands out slices carved from chunks, so a lowering takes a few
// allocations instead of one per list. A chunk is never grown in place,
// so handed-out slices stay valid; Reset keeps the last chunk for the
// next run.
type Slab[T any] struct{ buf []T }

// Alloc returns n zero values.
func (s *Slab[T]) Alloc(n int) []T {
	if len(s.buf)+n > cap(s.buf) {
		s.buf = make([]T, 0, max(2*cap(s.buf), n, arenaFirst))
	}
	lo := len(s.buf)
	s.buf = s.buf[:lo+n]
	return s.buf[lo : lo+n : lo+n]
}

// Reset zeroes the last chunk's values and rewinds it.
func (s *Slab[T]) Reset() {
	clear(s.buf)
	s.buf = s.buf[:0]
}
