package vsim

import (
	"cmp"

	"repro/internal/hdl"
	"repro/internal/lex"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// evalConst evaluates an elaboration-time constant expression using only
// the instance's parameters.
func (inst *Instance) evalConst(e verilog.Expr) (hdl.Vector, error) {
	switch x := e.(type) {
	case *verilog.Number:
		return x.Value.Clone(), nil
	case *verilog.Ident:
		for scope := inst; scope != nil; scope = scope.Parent {
			if v, ok := scope.Params[x.Name]; ok {
				return v.Clone(), nil
			}
			break // parameters do not inherit across instance boundaries
		}
		return hdl.Vector{}, sim.ElabErrf(x.Pos, "%q is not a constant (parameters only in this context)", x.Name)
	case *verilog.Unary:
		v, err := inst.evalConst(x.X)
		if err != nil {
			return hdl.Vector{}, err
		}
		return unaryFns[x.Op](v), nil
	case *verilog.Binary:
		l, err := inst.evalConst(x.L)
		if err != nil {
			return hdl.Vector{}, err
		}
		r, err := inst.evalConst(x.R)
		if err != nil {
			return hdl.Vector{}, err
		}
		return binaryFns[x.Op](l, r), nil
	case *verilog.Ternary:
		c, err := inst.evalConst(x.Cond)
		if err != nil {
			return hdl.Vector{}, err
		}
		if c.ToBool() == hdl.L1 {
			return inst.evalConst(x.Then)
		}
		return inst.evalConst(x.Else)
	case *verilog.ConcatExpr:
		parts := make([]hdl.Vector, 0, len(x.Parts))
		for _, p := range x.Parts {
			v, err := inst.evalConst(p)
			if err != nil {
				return hdl.Vector{}, err
			}
			parts = append(parts, v)
		}
		return hdl.Concat(parts...), nil
	default:
		return hdl.Vector{}, sim.ElabErrf(e.ExprPos(), "expression is not constant")
	}
}

// evalRange evaluates a [msb:lsb] range to (width, msb, lsb).
func (inst *Instance) evalRange(r *verilog.Range) (width, msb, lsb int, err error) {
	mv, err := inst.evalConst(r.MSB)
	if err != nil {
		return 0, 0, 0, err
	}
	lv, err := inst.evalConst(r.LSB)
	if err != nil {
		return 0, 0, 0, err
	}
	m64, ok1 := mv.Int()
	l64, ok2 := lv.Int()
	if !ok1 || !ok2 {
		return 0, 0, 0, sim.ElabErrf(r.MSB.ExprPos(), "range bounds contain unknown bits")
	}
	m, l := int(m64), int(l64)
	w := m - l
	if w < 0 {
		w = -w
	}
	w++
	if w > 1<<16 {
		return 0, 0, 0, sim.ElabErrf(r.MSB.ExprPos(), "vector too wide (%d bits)", w)
	}
	return w, m, l, nil
}

// unaryFns and binaryFns are the hdl functions of the operators the
// parser produces.
var unaryFns = map[string]func(hdl.Vector) hdl.Vector{
	"!": hdl.Vector.LogicalNot, "~": hdl.Vector.BitwiseNot, "-": hdl.Vector.Neg,
	"+": func(v hdl.Vector) hdl.Vector { return v },
	"&": hdl.Vector.ReduceAnd, "|": hdl.Vector.ReduceOr, "^": hdl.Vector.ReduceXor,
	"~&": func(v hdl.Vector) hdl.Vector { return v.ReduceAnd().LogicalNot() },
	"~|": func(v hdl.Vector) hdl.Vector { return v.ReduceOr().LogicalNot() },
	"~^": func(v hdl.Vector) hdl.Vector { return v.ReduceXor().LogicalNot() },
	"^~": func(v hdl.Vector) hdl.Vector { return v.ReduceXor().LogicalNot() },
}

var binaryFns = map[string]func(l, r hdl.Vector) hdl.Vector{
	"+": hdl.Vector.Add, "-": hdl.Vector.Sub, "*": hdl.Vector.Mul, "/": hdl.Vector.Div,
	"%": hdl.Vector.Mod, "**": hdl.Vector.Pow,
	"&": hdl.Vector.BitwiseAnd, "|": hdl.Vector.BitwiseOr, "^": hdl.Vector.BitwiseXor,
	"~^": hdl.Vector.BitwiseXnor, "^~": hdl.Vector.BitwiseXnor,
	"&&": hdl.Vector.LogicalAnd, "||": hdl.Vector.LogicalOr,
	"==": hdl.Vector.Eq, "!=": hdl.Vector.Neq, "===": hdl.Vector.CaseEq, "!==": hdl.Vector.CaseNeq,
	"<": hdl.Vector.Lt, "<=": hdl.Vector.Le, ">": hdl.Vector.Gt, ">=": hdl.Vector.Ge,
	"<<": hdl.Vector.Shl, "<<<": hdl.Vector.Shl, ">>": hdl.Vector.Shr, ">>>": hdl.Vector.AShr,
}

// signedFns are the relational and division operators over two signed
// operands: two's-complement comparisons, and division and remainder
// truncating toward zero (the remainder takes the dividend's sign).
var signedFns = map[string]func(l, r hdl.Vector) hdl.Vector{
	"<":  func(l, r hdl.Vector) hdl.Vector { return compareInts(l, r, -1, -1) },
	"<=": func(l, r hdl.Vector) hdl.Vector { return compareInts(l, r, -1, 0) },
	">":  func(l, r hdl.Vector) hdl.Vector { return compareInts(l, r, 1, 1) },
	">=": func(l, r hdl.Vector) hdl.Vector { return compareInts(l, r, 0, 1) },
	"/":  func(l, r hdl.Vector) hdl.Vector { return divInts(l, r, false) },
	"%":  func(l, r hdl.Vector) hdl.Vector { return divInts(l, r, true) },
}

// divInts divides l by r as two's-complement numbers at their common
// width: the unsigned quotient or remainder of their magnitudes, given
// a sign as truncation toward zero does. A quotient is negative when
// the signs differ; a remainder takes the dividend's sign. An unknown
// operand or a zero divisor yields all-X, as unsigned division does.
func divInts(l, r hdl.Vector, rem bool) hdl.Vector {
	w := max(l.Width(), r.Width())
	l, r = l.SignExtend(w), r.SignExtend(w)
	ln, rn := l.Bit(w-1) == hdl.L1, r.Bit(w-1) == hdl.L1
	if ln {
		l = l.Neg()
	}
	if rn {
		r = r.Neg()
	}
	if rem {
		v := l.Mod(r)
		if ln {
			v = v.Neg()
		}
		return v
	}
	v := l.Div(r)
	if ln != rn {
		v = v.Neg()
	}
	return v
}

// compareInts reports, as a bit, whether cmp.Compare of l and r, as
// two's-complement numbers, lies in [lo, hi]; X when either is unknown.
func compareInts(l, r hdl.Vector, lo, hi int) hdl.Vector {
	li, ok1 := l.Int()
	ri, ok2 := r.Int()
	if !ok1 || !ok2 {
		return hdl.Scalar(hdl.LX)
	}
	c := cmp.Compare(li, ri)
	return hdl.FromBool(lo <= c && c <= hi)
}

// unsign marks the signed loads among e's context-determined operands
// unsigned: an unsigned expression zero-extends every operand, whatever
// its own type, and only a signed one sign-extends them (IEEE 1364
// §5.5.1). It stops at an unsigned node, which did the same for its own
// operands when it was lowered.
func unsign(e *sim.Expr) {
	if !e.Signed {
		return
	}
	switch e.Op {
	case sim.VLoad, sim.VRandom, sim.VSigned:
		e.Signed = false
	case sim.VUnaryCtx, sim.VShift:
		unsign(e.A)
	case sim.VBinCtx:
		unsign(e.A)
		unsign(e.B)
	case sim.VTernary:
		unsign(e.B)
		unsign(e.C)
	}
}

// lower lowers e, in scope inst, into the run's expression form (see
// sim.Expr): every name bound to its signal, parameter value or fault,
// every node sized and typed by the IEEE 1364 rules.
func (s *Simulator) lower(inst *Instance, e verilog.Expr) *sim.Expr {
	rt := &s.Runtime
	node := func(op sim.ExprOp, w int) *sim.Expr {
		n := rt.NewExpr(op)
		n.W = w
		return n
	}
	fault := func(w int, format string, args ...any) *sim.Expr {
		n := node(sim.XFault, w)
		n.Msg = sim.Faultf(format, args...).Msg
		return n
	}
	switch x := e.(type) {
	case *verilog.Number:
		// Safe to share the AST literal's storage: Vectors are
		// immutable by convention once published (see hdl.Vector.SetBit).
		n := node(sim.VLoad, x.Value.Width())
		n.Ref, n.Signed, n.Const = &x.Value, x.Signed, true
		return n
	case *verilog.StringLit:
		n := node(sim.XLoad, max(8*len(x.Value), 8))
		n.Ref, n.Const = rt.Const(packString(x.Value)), true
		return n
	case *verilog.Ident:
		if sig, ok := inst.Signals[x.Name]; ok {
			if sig.IsMem {
				n := fault(sig.Width, "memory %q used without an index", x.Name)
				n.Signed, n.Watch = sig.Signed, &sig.watch
				return n
			}
			n := node(sim.VLoad, sig.Width)
			n.Ref, n.Signed, n.Watch = &sig.Val, sig.Signed, &sig.watch
			return n
		}
		if v, ok := inst.Params[x.Name]; ok {
			n := node(sim.VLoad, v.Width())
			n.Ref, n.Const = rt.Const(v), true
			return n
		}
		return fault(1, "reference to undeclared identifier %q", x.Name)
	case *verilog.Unary:
		a := s.lower(inst, x.X)
		n := node(sim.VUnary, 1)
		n.A, n.Fn1, n.Const = a, unaryFns[x.Op], a.Const
		switch x.Op {
		case "~", "-", "+":
			n.Op, n.W, n.Dyn, n.Signed = sim.VUnaryCtx, a.W, a.Dyn, a.Signed
		}
		return n
	case *verilog.Binary:
		a, b := s.lower(inst, x.L), s.lower(inst, x.R)
		n := node(sim.VBin, 1)
		n.A, n.B, n.Fn2, n.Const = a, b, binaryFns[x.Op], a.Const && b.Const
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			n.Op, n.W, n.Dyn = sim.VBinCtx, max(a.W, b.W), a.Dyn || b.Dyn
		case "<<", ">>", "<<<", ">>>", "**":
			n.Op, n.W, n.Dyn, n.Signed = sim.VShift, a.W, a.Dyn, a.Signed
		case "==", "!=", "===", "!==":
			n.Op = sim.VCompare
		case "<", "<=", ">", ">=":
			// Per IEEE 1364, the comparison is signed only when both
			// operands are signed (integers, signed regs, plain decimals).
			if a.Signed && b.Signed {
				n.Fn2 = signedFns[x.Op]
			} else {
				n.Op = sim.VCompare
			}
		}
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			n.Signed = a.Signed && b.Signed
		}
		if n.Signed && (x.Op == "/" || x.Op == "%") {
			n.Fn2 = signedFns[x.Op]
		}
		if (n.Op == sim.VBinCtx || n.Op == sim.VCompare) && !(a.Signed && b.Signed) {
			unsign(a)
			unsign(b)
		}
		return n
	case *verilog.Ternary:
		c, t, f := s.lower(inst, x.Cond), s.lower(inst, x.Then), s.lower(inst, x.Else)
		n := node(sim.VTernary, max(t.W, f.W))
		n.A, n.B, n.C = c, t, f
		n.Dyn, n.Signed, n.Const = t.Dyn || f.Dyn, t.Signed && f.Signed, c.Const && t.Const && f.Const
		if !n.Signed {
			unsign(t)
			unsign(f)
		}
		return n
	case *verilog.ConcatExpr:
		n := node(sim.VConcat, 0)
		n.Args, n.Const = rt.Exprs(len(x.Parts)), true
		for i, p := range x.Parts {
			a := s.lower(inst, p)
			n.Args[i] = a
			n.W += a.W
			n.Dyn = n.Dyn || a.Dyn
			n.Const = n.Const && a.Const
		}
		return n
	case *verilog.ReplicateExpr:
		c, v := s.lower(inst, x.Count), s.lower(inst, x.Value)
		n := node(sim.VReplicate, 1)
		n.A, n.B, n.Dyn = c, v, true
		if c.Const && !v.Dyn {
			if k, ok := rt.Eval(c, 0).Uint(); ok && k <= 4096 {
				n.W = int(k) * v.W
			}
			n.Dyn = false
		}
		return n
	case *verilog.Index, *verilog.PartSelect:
		return s.lowerSelect(inst, e)
	case *verilog.SysFuncCall:
		var n *sim.Expr
		switch x.Name {
		case "$time", "$realtime", "$stime":
			n = node(sim.VTime, 64)
		case "$random", "$urandom":
			n = node(sim.VRandom, 32)
			n.Signed = x.Name == "$random"
		case "$clog2":
			if len(x.Args) != 1 {
				n = fault(32, "$clog2 expects 1 argument")
				break
			}
			n = node(sim.VClog2, 32)
			n.A = s.lower(inst, x.Args[0])
			return n
		case "$signed", "$unsigned":
			if len(x.Args) != 1 {
				n = fault(32, "%s expects 1 argument", x.Name)
				n.Signed = x.Name == "$signed"
				break
			}
			a := s.lower(inst, x.Args[0])
			n = node(sim.VUnsigned, a.W)
			n.A, n.Dyn, n.Const = a, a.Dyn, a.Const
			if x.Name == "$signed" {
				n.Op, n.Signed = sim.VSigned, true
			}
			return n
		default:
			n = fault(32, "unsupported system function %s", x.Name)
		}
		// Arguments evaluation ignores still belong to the read set.
		n.Args = s.lowerList(inst, x.Args)
		return n
	default:
		return fault(1, "unsupported expression at %v", e.ExprPos())
	}
}

// lowerSelect lowers a bit, word or part select, base[a] or base[a:b].
func (s *Simulator) lowerSelect(inst *Instance, e verilog.Expr) *sim.Expr {
	n := s.NewExpr(sim.VIndex)
	n.W = 1
	var base verilog.Expr
	var pos lex.Pos
	if x, ok := e.(*verilog.Index); ok {
		base, n.A = x.Base, s.lower(inst, x.Idx)
	} else {
		x := e.(*verilog.PartSelect)
		base, pos, n.Op, n.A, n.B = x.Base, x.Pos, sim.VPart, s.lower(inst, x.MSB), s.lower(inst, x.LSB)
	}
	part := n.B != nil
	id, named := base.(*verilog.Ident)
	var sig *Signal
	var param hdl.Vector
	isSig, isParam := false, false
	if named {
		sig, isSig = inst.Signals[id.Name]
		param, isParam = inst.Params[id.Name]
	}
	switch {
	case !named && part:
		n.Op, n.Msg, n.Args = sim.XFault, sim.Faultf("part select requires a simple name at %v", pos).Msg, s.Exprs(1)
		n.Args[0] = s.lower(inst, base)
	case !named:
		n.Op, n.A, n.B = sim.VIndexExpr, s.lower(inst, base), n.A
	case isSig && sig.IsMem && part:
		n.Op, n.Msg = sim.VSelectBad, sim.Faultf("part select on memory %q", id.Name).Msg
	case isSig && sig.IsMem:
		n.Op, n.W, n.Mem = sim.VIndexMem, sig.Width, sig
	case isSig:
		n.Ref, n.Hi, n.Lo = &sig.Val, sig.MSB, sig.LSB
	case isParam && part:
		n.Op, n.Ref = sim.VPartConst, s.Const(param)
	case isParam:
		n.Ref, n.Own = s.Const(param), true
	default:
		n.Op, n.Msg = sim.VSelectBad, sim.Faultf("reference to undeclared identifier %q", id.Name).Msg
	}
	if isSig {
		n.Watch = &sig.watch
	}
	if part {
		if n.Dyn = !n.A.Const || !n.B.Const; !n.Dyn {
			n.W = s.PartWidth(n)
		}
	}
	return n
}

// lowerList lowers a list of expressions.
func (s *Simulator) lowerList(inst *Instance, es []verilog.Expr) []*sim.Expr {
	if len(es) == 0 {
		return nil
	}
	out := s.Exprs(len(es))
	for i, e := range es {
		out[i] = s.lower(inst, e)
	}
	return out
}

// packString packs a string literal into a vector, 8 bits a character
// and the last character lowest, as Verilog does in expression position.
func packString(str string) hdl.Vector {
	w := max(8*len(str), 8)
	v := hdl.NewVector(w, hdl.L0)
	for i := 0; i < len(str); i++ {
		ch := str[len(str)-1-i]
		for b := 0; b < 8; b++ {
			if ch&(1<<b) != 0 {
				v.SetBit(i*8+b, hdl.L1)
			}
		}
	}
	return v
}
