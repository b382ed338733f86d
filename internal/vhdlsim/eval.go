package vhdlsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// value is an evaluated VHDL expression: a vector plus a loose type tag
// used for numeric_std width rules (integer op unsigned yields the
// unsigned operand's width).
type value struct {
	v     hdl.Vector
	isInt bool
}

func intVal(n int64) value { return value{v: hdl.FromInt(n, 32), isInt: true} }

// indexValue interprets an evaluated expression as an array/bit index:
// integers are signed 32-bit; vector values index unsigned (a 2-bit
// address holding 2 must not sign-extend to -2).
func indexValue(v value) (int64, bool) {
	if v.isInt {
		return v.v.Int()
	}
	u, ok := v.v.Uint()
	if !ok || u > 1<<31 {
		return 0, false
	}
	return int64(u), true
}
func vecVal(v hdl.Vector) value { return value{v: v} }
func boolVal(b bool) value      { return value{v: hdl.FromBool(b)} }

// env is the per-process variable environment.
type env struct {
	vars map[string]*varSlot
}

type varSlot struct {
	val   hdl.Vector
	isInt bool
}

// lookupValue resolves a name: process variable, signal, then generic.
// kind: 0 unknown, 1 signal, 2 generic/constant, 3 variable.
func (s *Simulator) lookupValue(inst *Instance, en *env, name string) (*Signal, *varSlot, hdl.Vector, int) {
	if en != nil {
		if vs, ok := en.vars[name]; ok {
			return nil, vs, hdl.Vector{}, 3
		}
	}
	if sig, ok := inst.Signals[name]; ok {
		return sig, nil, hdl.Vector{}, 1
	}
	if v, ok := inst.Generics[name]; ok {
		return nil, nil, v, 2
	}
	return nil, nil, hdl.Vector{}, 0
}

// eval evaluates an expression with no width context.
func (s *Simulator) eval(inst *Instance, en *env, e vhdl.Expr) value {
	return s.evalCtx(inst, en, e, 0)
}

// evalCtx evaluates with a target width for aggregates and literals.
func (s *Simulator) evalCtx(inst *Instance, en *env, e vhdl.Expr, ctx int) value {
	switch x := e.(type) {
	case *vhdl.IntLit:
		return intVal(x.Value)
	case *vhdl.CharLit:
		return vecVal(hdl.Scalar(x.Value))
	case *vhdl.BitStrLit:
		// Safe to share the AST literal's storage: Vectors are
		// immutable by convention once published (see hdl.Vector.SetBit).
		return vecVal(x.Value)
	case *vhdl.BoolLit:
		return boolVal(x.Value)
	case *vhdl.StrLit:
		panic(sim.Faultf("string literal in a value context at %v", x.Pos))
	case *vhdl.Name:
		sig, vs, gv, kind := s.lookupValue(inst, en, x.Ident)
		switch kind {
		case 1:
			return value{v: sig.Val, isInt: sig.Kind == KindInt}
		case 2:
			return value{v: gv, isInt: gv.Width() == 32}
		case 3:
			return value{v: vs.val, isInt: vs.isInt}
		default:
			panic(sim.Faultf("reference to undeclared name %q", x.Ident))
		}
	case *vhdl.AggregateExpr:
		if ctx <= 0 {
			panic(sim.Faultf("aggregate used without a sized context at %v", x.Pos))
		}
		fill := s.eval(inst, en, x.Others)
		return vecVal(hdl.NewVector(ctx, fill.v.Bit(0)))
	case *vhdl.UnaryExpr:
		v := s.evalCtx(inst, en, x.X, ctx)
		switch x.Op {
		case "not":
			return value{v: v.v.BitwiseNot(), isInt: false}
		case "-":
			return value{v: v.v.Neg(), isInt: v.isInt}
		case "+":
			return v
		}
		panic(sim.Faultf("unsupported unary operator %q", x.Op))
	case *vhdl.BinaryExpr:
		return s.evalBinary(inst, en, x, ctx)
	case *vhdl.CallOrIndex:
		return s.evalCallOrIndex(inst, en, x, ctx)
	case *vhdl.AttrExpr:
		return s.evalAttr(inst, en, x)
	default:
		panic(sim.Faultf("unsupported expression at %v", e.ExprPos()))
	}
}

// numericPair applies the numeric_std width rule: integer adapts to the
// vector operand's width; two vectors meet at the larger width.
func numericPair(l, r value) (hdl.Vector, hdl.Vector, bool) {
	switch {
	case l.isInt && r.isInt:
		return l.v, r.v, true
	case l.isInt:
		return l.v.Resize(maxi(r.v.Width(), 1)), r.v, false
	case r.isInt:
		return l.v, r.v.Resize(maxi(l.v.Width(), 1)), false
	default:
		w := maxi(l.v.Width(), r.v.Width())
		return l.v.Resize(w), r.v.Resize(w), false
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (s *Simulator) evalBinary(inst *Instance, en *env, x *vhdl.BinaryExpr, ctx int) value {
	// Short-circuit-free logical operators on booleans/vectors.
	switch x.Op {
	case "and", "or", "xor", "nand", "nor", "xnor":
		l := s.eval(inst, en, x.L)
		r := s.eval(inst, en, x.R)
		w := maxi(l.v.Width(), r.v.Width())
		lv, rv := l.v.Resize(w), r.v.Resize(w)
		var out hdl.Vector
		switch x.Op {
		case "and":
			out = lv.BitwiseAnd(rv)
		case "or":
			out = lv.BitwiseOr(rv)
		case "xor":
			out = lv.BitwiseXor(rv)
		case "nand":
			out = lv.BitwiseAnd(rv).BitwiseNot()
		case "nor":
			out = lv.BitwiseOr(rv).BitwiseNot()
		case "xnor":
			out = lv.BitwiseXnor(rv)
		}
		return vecVal(out)
	case "&":
		l := s.eval(inst, en, x.L)
		r := s.eval(inst, en, x.R)
		return vecVal(hdl.Concat(l.v, r.v))
	}
	l := s.eval(inst, en, x.L)
	r := s.eval(inst, en, x.R)
	lv, rv, bothInt := numericPair(l, r)
	switch x.Op {
	case "+":
		return value{v: lv.Add(rv), isInt: bothInt}
	case "-":
		return value{v: lv.Sub(rv), isInt: bothInt}
	case "*":
		if !bothInt {
			// numeric_std "*" yields a product of width a'length+b'length.
			pw := l.v.Width() + r.v.Width()
			if l.isInt {
				pw = 2 * r.v.Width()
			} else if r.isInt {
				pw = 2 * l.v.Width()
			}
			return value{v: lv.Resize(pw).Mul(rv.Resize(pw))}
		}
		return value{v: lv.Mul(rv), isInt: true}
	case "/":
		return value{v: lv.Div(rv), isInt: bothInt}
	case "mod", "rem":
		return value{v: lv.Mod(rv), isInt: bothInt}
	case "**":
		return value{v: lv.Pow(rv), isInt: bothInt}
	case "sll":
		return value{v: lv.Shl(rv), isInt: bothInt}
	case "srl":
		return value{v: lv.Shr(rv), isInt: bothInt}
	case "=":
		return boolVal(lv.CaseEq(rv).Equal(hdl.FromBool(true)))
	case "/=":
		return boolVal(!lv.CaseEq(rv).Equal(hdl.FromBool(true)))
	case "<":
		return boolVal(lv.Lt(rv).Equal(hdl.FromBool(true)))
	case "<=":
		return boolVal(lv.Le(rv).Equal(hdl.FromBool(true)))
	case ">":
		return boolVal(lv.Gt(rv).Equal(hdl.FromBool(true)))
	case ">=":
		return boolVal(lv.Ge(rv).Equal(hdl.FromBool(true)))
	}
	panic(sim.Faultf("unsupported operator %q at %v", x.Op, x.Pos))
}

func (s *Simulator) evalCallOrIndex(inst *Instance, en *env, x *vhdl.CallOrIndex, ctx int) value {
	// Signal/variable index or slice?
	sig, vs, gv, kind := s.lookupValue(inst, en, x.Name)
	if kind != 0 {
		return s.evalSelect(inst, en, x, sig, vs, gv, kind)
	}
	// Builtin function.
	switch x.Name {
	case "rising_edge", "falling_edge":
		if len(x.Args) != 1 {
			panic(sim.Faultf("%s expects 1 argument", x.Name))
		}
		nm, ok := x.Args[0].(*vhdl.Name)
		if !ok {
			panic(sim.Faultf("%s expects a signal name", x.Name))
		}
		sg, _, _, k := s.lookupValue(inst, nil, nm.Ident)
		if k != 1 {
			panic(sim.Faultf("%s argument %q is not a signal", x.Name, nm.Ident))
		}
		if !sg.eventFlagNow(s) {
			return boolVal(false)
		}
		cur, prev := sg.Val.Bit(0), sg.Prev.Bit(0)
		if x.Name == "rising_edge" {
			return boolVal(cur == hdl.L1 && prev == hdl.L0)
		}
		return boolVal(cur == hdl.L0 && prev == hdl.L1)
	case "to_unsigned", "to_signed", "conv_std_logic_vector":
		if len(x.Args) != 2 {
			panic(sim.Faultf("%s expects 2 arguments", x.Name))
		}
		v := s.eval(inst, en, x.Args[0])
		wV := s.eval(inst, en, x.Args[1])
		w64, ok := wV.v.Uint()
		if !ok || w64 == 0 || w64 > 1<<16 {
			panic(sim.Faultf("bad width in %s", x.Name))
		}
		return vecVal(v.v.Resize(int(w64)))
	case "to_integer", "conv_integer":
		if len(x.Args) != 1 {
			panic(sim.Faultf("%s expects 1 argument", x.Name))
		}
		v := s.eval(inst, en, x.Args[0])
		return value{v: v.v.Resize(32), isInt: true}
	case "std_logic_vector", "unsigned", "signed", "to_01":
		if len(x.Args) != 1 {
			panic(sim.Faultf("%s expects 1 argument", x.Name))
		}
		v := s.eval(inst, en, x.Args[0])
		return vecVal(v.v)
	case "resize":
		if len(x.Args) != 2 {
			panic(sim.Faultf("resize expects 2 arguments"))
		}
		v := s.eval(inst, en, x.Args[0])
		wV := s.eval(inst, en, x.Args[1])
		w64, ok := wV.v.Uint()
		if !ok || w64 == 0 || w64 > 1<<16 {
			panic(sim.Faultf("bad width in resize"))
		}
		if isSignedExpr(x.Args[0]) {
			return vecVal(v.v.SignExtend(int(w64)))
		}
		return vecVal(v.v.Resize(int(w64)))
	case "shift_left":
		if len(x.Args) != 2 {
			panic(sim.Faultf("shift_left expects 2 arguments"))
		}
		return vecVal(s.eval(inst, en, x.Args[0]).v.Shl(s.eval(inst, en, x.Args[1]).v))
	case "shift_right":
		if len(x.Args) != 2 {
			panic(sim.Faultf("shift_right expects 2 arguments"))
		}
		lv := s.eval(inst, en, x.Args[0]).v
		rv := s.eval(inst, en, x.Args[1]).v
		if isSignedExpr(x.Args[0]) {
			// numeric_std shift_right on signed is arithmetic.
			return vecVal(lv.AShr(rv))
		}
		return vecVal(lv.Shr(rv))
	case "abs", "integer":
		if len(x.Args) != 1 {
			panic(sim.Faultf("%s expects 1 argument", x.Name))
		}
		return s.eval(inst, en, x.Args[0])
	default:
		panic(sim.Faultf("call to undefined function %q at %v", x.Name, x.Pos))
	}
}

// evalSelect handles name(idx) and name(l downto r) on signals,
// variables, and constants.
func (s *Simulator) evalSelect(inst *Instance, en *env, x *vhdl.CallOrIndex, sig *Signal, vs *varSlot, gv hdl.Vector, kind int) value {
	var base hdl.Vector
	msb, lsb := 0, 0
	switch kind {
	case 1:
		base, msb, lsb = sig.Val, sig.MSB, sig.LSB
	case 3:
		base, msb, lsb = vs.val, vs.val.Width()-1, 0
	default:
		base, msb, lsb = gv, gv.Width()-1, 0
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
		l64, ok1 := indexValue(s.eval(inst, en, x.Left))
		r64, ok2 := indexValue(s.eval(inst, en, x.Right))
		if !ok1 || !ok2 {
			return vecVal(hdl.XFill(1))
		}
		lb, okL := toBit(int(l64))
		rb, okR := toBit(int(r64))
		if !okL || !okR {
			return vecVal(hdl.XFill(1))
		}
		if lb > rb {
			lb, rb = rb, lb
		}
		return vecVal(base.Slice(lb, rb-lb+1))
	}
	if len(x.Args) != 1 {
		panic(sim.Faultf("bad index on %q at %v", x.Name, x.Pos))
	}
	i64, ok := indexValue(s.eval(inst, en, x.Args[0]))
	if !ok {
		return vecVal(hdl.XFill(1))
	}
	bit, inRange := toBit(int(i64))
	if !inRange {
		return vecVal(hdl.XFill(1))
	}
	return vecVal(hdl.Scalar(base.Bit(bit)))
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

func (s *Simulator) evalAttr(inst *Instance, en *env, x *vhdl.AttrExpr) value {
	sig, vs, gv, kind := s.lookupValue(inst, en, x.Base)
	switch x.Attr {
	case "event":
		if kind != 1 {
			panic(sim.Faultf("'event on non-signal %q", x.Base))
		}
		return boolVal(sig.eventFlagNow(s))
	case "length":
		switch kind {
		case 1:
			return intVal(int64(sig.Width))
		case 3:
			return intVal(int64(vs.val.Width()))
		case 2:
			return intVal(int64(gv.Width()))
		}
	}
	panic(sim.Faultf("unsupported attribute %q'%s", x.Base, x.Attr))
}

// eventFlagNow reports whether the signal changed in the delta cycle
// currently executing (the one its wakeups run in). The stamp is the
// kernel's run-global delta serial; zero means "never changed".
func (sig *Signal) eventFlagNow(s *Simulator) bool {
	return sig.eventStamp == s.Kernel.DeltaSerial()
}
