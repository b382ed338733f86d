package vhdlsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// varSlot is one process variable, constant or for loop variable:
// its value and whether it is integer-typed.
type varSlot struct {
	val   hdl.Vector
	isInt bool
}

// lower lowers e, in scope inst and under the process variables in
// s.scope, into the run's expression form (see sim.Expr): a name binds
// to the innermost variable, else the signal, else the generic of that
// name, and each node keeps the integer tag numeric_std's width rules
// read. A node that names a signal keeps its watch list for read sets
// even when a variable of that name shadows it, as the wait sites and
// concurrent statements have always watched by name.
func (s *Simulator) lower(inst *Instance, e vhdl.Expr) *sim.Expr {
	rt := &s.Runtime
	node := func(op sim.ExprOp) *sim.Expr { return rt.NewExpr(op) }
	fault := func(format string, args ...any) *sim.Expr {
		n := node(sim.XFault)
		n.Msg = sim.Faultf(format, args...).Msg
		return n
	}
	watch := func(n *sim.Expr, name string) *sim.Expr {
		if sig, ok := inst.Signals[name]; ok {
			n.Watch = &sig.watch
		}
		return n
	}
	konst := func(v hdl.Vector, isInt bool) *sim.Expr {
		n := node(sim.XLoad)
		n.Ref, n.Signed = rt.Const(v), isInt
		return n
	}
	switch x := e.(type) {
	case *vhdl.IntLit:
		return konst(hdl.FromInt(x.Value, 32), true)
	case *vhdl.CharLit:
		return konst(hdl.Scalar(x.Value), false)
	case *vhdl.BitStrLit:
		// Safe to share the AST literal's storage: Vectors are
		// immutable by convention once published (see hdl.Vector.SetBit).
		return konst(x.Value, false)
	case *vhdl.BoolLit:
		return konst(hdl.FromBool(x.Value), false)
	case *vhdl.StrLit:
		return fault("string literal in a value context at %v", x.Pos)
	case *vhdl.Name:
		n := node(sim.XLoad)
		if !s.bind(inst, n, x.Ident) {
			n.Op, n.Msg = sim.XFault, sim.Faultf("reference to undeclared name %q", x.Ident).Msg
		}
		return watch(n, x.Ident)
	case *vhdl.AggregateExpr:
		n := node(sim.HAggregate)
		n.A, n.Msg = s.lower(inst, x.Others), sim.Faultf("aggregate used without a sized context at %v", x.Pos).Msg
		return n
	case *vhdl.UnaryExpr:
		a := s.lower(inst, x.X)
		n := node(sim.HUnary)
		n.A, n.Signed = a, a.Signed
		switch x.Op {
		case "not":
			n.Fn1, n.Signed = hdl.Vector.BitwiseNot, false
		case "-":
			n.Fn1 = hdl.Vector.Neg
		case "+":
		default:
			n.Op, n.Msg = sim.XFault, sim.Faultf("unsupported unary operator %q", x.Op).Msg
		}
		return n
	case *vhdl.BinaryExpr:
		return s.lowerBinary(inst, x)
	case *vhdl.CallOrIndex:
		return watch(s.lowerCall(inst, x), x.Name)
	case *vhdl.AttrExpr:
		sig, isSig := inst.Signals[x.Base]
		vs, isVar := s.scope[x.Base]
		gv, isGen := inst.Generics[x.Base]
		var n *sim.Expr
		switch {
		case x.Attr == "event" && (isVar || !isSig):
			n = fault("'event on non-signal %q", x.Base)
		case x.Attr == "event":
			n = node(sim.HEvent)
			n.Stamp = &sig.eventStamp
		case x.Attr == "length" && isVar:
			n = node(sim.HLength)
			n.Ref, n.Signed = &vs.val, true
		case x.Attr == "length" && isSig:
			n = konst(hdl.FromInt(int64(sig.Width), 32), true)
		case x.Attr == "length" && isGen:
			n = konst(hdl.FromInt(int64(gv.Width()), 32), true)
		default:
			n = fault("unsupported attribute %q'%s", x.Base, x.Attr)
		}
		return watch(n, x.Base)
	default:
		return fault("unsupported expression at %v", e.ExprPos())
	}
}

// bind makes n read name: the innermost process variable, else the
// signal, else the generic of that name. It reports false when there is
// none.
func (s *Simulator) bind(inst *Instance, n *sim.Expr, name string) bool {
	if vs, ok := s.scope[name]; ok {
		n.Ref, n.Signed = &vs.val, vs.isInt
		n.Own = true
		return true
	}
	if sig, ok := inst.Signals[name]; ok {
		n.Ref, n.Signed, n.Hi, n.Lo = &sig.Val, sig.Kind == KindInt, sig.MSB, sig.LSB
		return true
	}
	if v, ok := inst.Generics[name]; ok {
		n.Ref, n.Signed, n.Hi, n.Lo = s.Const(v), v.Width() == 32, v.Width()-1, 0
		return true
	}
	return false
}

// binaryFns are the functions of VHDL's binary operators, by the op
// that evaluates them.
var binaryFns = map[string]struct {
	op sim.ExprOp
	fn func(l, r hdl.Vector) hdl.Vector
}{
	"and":  {sim.HLogic, hdl.Vector.BitwiseAnd},
	"or":   {sim.HLogic, hdl.Vector.BitwiseOr},
	"xor":  {sim.HLogic, hdl.Vector.BitwiseXor},
	"nand": {sim.HLogic, func(l, r hdl.Vector) hdl.Vector { return l.BitwiseAnd(r).BitwiseNot() }},
	"nor":  {sim.HLogic, func(l, r hdl.Vector) hdl.Vector { return l.BitwiseOr(r).BitwiseNot() }},
	"xnor": {sim.HLogic, hdl.Vector.BitwiseXnor},
	"+":    {sim.HNum, hdl.Vector.Add},
	"-":    {sim.HNum, hdl.Vector.Sub},
	"*":    {sim.HNum, hdl.Vector.Mul},
	"/":    {sim.HNum, hdl.Vector.Div},
	"mod":  {sim.HNum, hdl.Vector.Mod},
	"rem":  {sim.HNum, hdl.Vector.Mod},
	"**":   {sim.HNum, hdl.Vector.Pow},
	"sll":  {sim.HNum, hdl.Vector.Shl},
	"srl":  {sim.HNum, hdl.Vector.Shr},
	"=":    {sim.HCompare, hdl.Vector.CaseEq},
	"/=":   {sim.HCompare, func(l, r hdl.Vector) hdl.Vector { return hdl.FromBool(!l.CaseEq(r).Equal(hdl.FromBool(true))) }},
	"<":    {sim.HCompare, hdl.Vector.Lt},
	"<=":   {sim.HCompare, hdl.Vector.Le},
	">":    {sim.HCompare, hdl.Vector.Gt},
	">=":   {sim.HCompare, hdl.Vector.Ge},
}

func (s *Simulator) lowerBinary(inst *Instance, x *vhdl.BinaryExpr) *sim.Expr {
	a, b := s.lower(inst, x.L), s.lower(inst, x.R)
	if x.Op == "&" {
		n := s.NewExpr(sim.VConcat)
		n.Args = s.Exprs(2)
		n.Args[0], n.Args[1] = a, b
		return n
	}
	f, ok := binaryFns[x.Op]
	n := s.NewExpr(f.op)
	n.A, n.B, n.Fn2 = a, b, f.fn
	switch {
	case !ok:
		n.Op, n.Msg = sim.XFault, sim.Faultf("unsupported operator %q at %v", x.Op, x.Pos).Msg
	case x.Op == "*" && !(a.Signed && b.Signed):
		// numeric_std "*" of a vector yields a product a'length+b'length wide.
		n.Op = sim.HMul
	case f.op == sim.HNum:
		n.Signed = a.Signed && b.Signed
	}
	return n
}

// lowerCall lowers name(args): a select of a variable, signal or
// generic, else a builtin function.
func (s *Simulator) lowerCall(inst *Instance, x *vhdl.CallOrIndex) *sim.Expr {
	n := s.NewExpr(sim.VIndex)
	fault := func(format string, args ...any) *sim.Expr {
		n.Op, n.Msg = sim.XFault, sim.Faultf(format, args...).Msg
		n.A, n.B = nil, nil
		n.Args = s.lowerList(inst, x.Args)
		return n
	}
	if s.bind(inst, n, x.Name) {
		n.Signed = false
		if x.IsSlice {
			n.Op, n.A, n.B = sim.HSlice, s.lower(inst, x.Left), s.lower(inst, x.Right)
			return n
		}
		if len(x.Args) != 1 {
			return fault("bad index on %q at %v", x.Name, x.Pos)
		}
		n.A = s.lower(inst, x.Args[0])
		return n
	}
	want, builtin := builtinArity[x.Name]
	switch {
	case !builtin:
		return fault("call to undefined function %q at %v", x.Name, x.Pos)
	case len(x.Args) != want && want == 1:
		return fault("%s expects 1 argument", x.Name)
	case len(x.Args) != want:
		return fault("%s expects %d arguments", x.Name, want)
	}
	switch x.Name {
	case "rising_edge", "falling_edge":
		nm, ok := x.Args[0].(*vhdl.Name)
		if !ok {
			return fault("%s expects a signal name", x.Name)
		}
		sig, ok := inst.Signals[nm.Ident]
		if !ok {
			return fault("%s argument %q is not a signal", x.Name, nm.Ident)
		}
		n.Op, n.Ref, n.Prev, n.Stamp = sim.HRise, &sig.Val, &sig.Prev, &sig.eventStamp
		if x.Name == "falling_edge" {
			n.Op = sim.HFall
		}
		n.A = s.NewExpr(sim.XLoad)
		n.A.Watch = &sig.watch
	case "to_unsigned", "to_signed", "conv_std_logic_vector", "resize":
		n.Op, n.A, n.B, n.Msg = sim.HResize, s.lower(inst, x.Args[0]), s.lower(inst, x.Args[1]), "bad width in "+x.Name
		if x.Name == "resize" && isSignedExpr(x.Args[0]) {
			n.Op = sim.HSignResize
		}
	case "shift_left", "shift_right":
		n.Op, n.A, n.B, n.Fn2 = sim.VBin, s.lower(inst, x.Args[0]), s.lower(inst, x.Args[1]), hdl.Vector.Shl
		if x.Name == "shift_right" {
			n.Fn2 = hdl.Vector.Shr
			if isSignedExpr(x.Args[0]) {
				// numeric_std shift_right on signed is arithmetic.
				n.Fn2 = hdl.Vector.AShr
			}
		}
	default: // conversions
		n.Op, n.A, n.Fn1 = sim.VUnary, s.lower(inst, x.Args[0]), identity
		switch x.Name {
		case "to_integer", "conv_integer":
			n.Fn1, n.Signed = toInteger, true
		case "abs", "integer":
			n.Signed = n.A.Signed
		}
	}
	return n
}

// builtinArity is the argument count of each builtin function.
var builtinArity = map[string]int{
	"rising_edge": 1, "falling_edge": 1, "to_unsigned": 2, "to_signed": 2, "conv_std_logic_vector": 2,
	"resize": 2, "shift_left": 2, "shift_right": 2, "to_integer": 1, "conv_integer": 1,
	"std_logic_vector": 1, "unsigned": 1, "signed": 1, "to_01": 1, "abs": 1, "integer": 1,
}

func identity(v hdl.Vector) hdl.Vector  { return v }
func toInteger(v hdl.Vector) hdl.Vector { return v.Resize(32) }

// lowerList lowers a list of expressions.
func (s *Simulator) lowerList(inst *Instance, es []vhdl.Expr) []*sim.Expr {
	if len(es) == 0 {
		return nil
	}
	out := s.Exprs(len(es))
	for i, e := range es {
		out[i] = s.lower(inst, e)
	}
	return out
}

// isSignedExpr reports whether an expression is syntactically a signed
// value: signed(x), to_signed(...), or resize(signed-expr, ...). Type
// information is erased in this interpreter, so operations whose
// numeric_std behaviour depends on signedness dispatch on syntax.
func isSignedExpr(e vhdl.Expr) bool {
	c, ok := e.(*vhdl.CallOrIndex)
	if !ok {
		return false
	}
	switch c.Name {
	case "signed", "to_signed":
		return true
	case "resize", "shift_left", "shift_right":
		if len(c.Args) > 0 {
			return isSignedExpr(c.Args[0])
		}
	}
	return false
}
