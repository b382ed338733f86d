package vsim

import (
	"repro/internal/hdl"
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
		return applyUnary(x.Op, v), nil
	case *verilog.Binary:
		l, err := inst.evalConst(x.L)
		if err != nil {
			return hdl.Vector{}, err
		}
		r, err := inst.evalConst(x.R)
		if err != nil {
			return hdl.Vector{}, err
		}
		return applyBinary(x.Op, l, r), nil
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

// applyUnary implements all supported unary operators.
func applyUnary(op string, v hdl.Vector) hdl.Vector {
	switch op {
	case "!":
		return v.LogicalNot()
	case "~":
		return v.BitwiseNot()
	case "-":
		return v.Neg()
	case "+":
		return v
	case "&":
		return v.ReduceAnd()
	case "|":
		return v.ReduceOr()
	case "^":
		return v.ReduceXor()
	case "~&":
		return v.ReduceAnd().LogicalNot()
	case "~|":
		return v.ReduceOr().LogicalNot()
	case "~^", "^~":
		return v.ReduceXor().LogicalNot()
	}
	return hdl.XFill(v.Width())
}

// applyBinary implements all supported binary operators.
func applyBinary(op string, l, r hdl.Vector) hdl.Vector {
	switch op {
	case "+":
		return l.Add(r)
	case "-":
		return l.Sub(r)
	case "*":
		return l.Mul(r)
	case "/":
		return l.Div(r)
	case "%":
		return l.Mod(r)
	case "**":
		return l.Pow(r)
	case "&":
		return l.BitwiseAnd(r)
	case "|":
		return l.BitwiseOr(r)
	case "^":
		return l.BitwiseXor(r)
	case "~^", "^~":
		return l.BitwiseXnor(r)
	case "&&":
		return l.LogicalAnd(r)
	case "||":
		return l.LogicalOr(r)
	case "==":
		return l.Eq(r)
	case "!=":
		return l.Neq(r)
	case "===":
		return l.CaseEq(r)
	case "!==":
		return l.CaseNeq(r)
	case "<":
		return l.Lt(r)
	case "<=":
		return l.Le(r)
	case ">":
		return l.Gt(r)
	case ">=":
		return l.Ge(r)
	case "<<":
		return l.Shl(r)
	case ">>":
		return l.Shr(r)
	case "<<<":
		return l.Shl(r)
	case ">>>":
		return l.AShr(r)
	}
	return hdl.XFill(hdlMax(l.Width(), r.Width()))
}

func hdlMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// lookup resolves a name in the instance scope: signals first, then
// parameters. Returns (signal, paramValue, kind): kind 0 none, 1 signal,
// 2 param.
func (inst *Instance) lookup(name string) (*Signal, hdl.Vector, int) {
	if s, ok := inst.Signals[name]; ok {
		return s, hdl.Vector{}, 1
	}
	if v, ok := inst.Params[name]; ok {
		return nil, v, 2
	}
	return nil, hdl.Vector{}, 0
}

// natWidth infers the self-determined bit width of an expression, per
// the IEEE 1364 expression sizing rules.
func (s *Simulator) natWidth(inst *Instance, e verilog.Expr) int {
	switch x := e.(type) {
	case *verilog.Number:
		return x.Value.Width()
	case *verilog.StringLit:
		if len(x.Value) == 0 {
			return 8
		}
		return 8 * len(x.Value)
	case *verilog.Ident:
		sig, pv, kind := inst.lookup(x.Name)
		switch kind {
		case 1:
			return sig.Width
		case 2:
			return pv.Width()
		}
		return 1
	case *verilog.Unary:
		switch x.Op {
		case "~", "-", "+":
			return s.natWidth(inst, x.X)
		}
		return 1
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			return hdlMax(s.natWidth(inst, x.L), s.natWidth(inst, x.R))
		case "<<", ">>", "<<<", ">>>", "**":
			return s.natWidth(inst, x.L)
		}
		return 1
	case *verilog.Ternary:
		return hdlMax(s.natWidth(inst, x.Then), s.natWidth(inst, x.Else))
	case *verilog.ConcatExpr:
		total := 0
		for _, p := range x.Parts {
			total += s.natWidth(inst, p)
		}
		return total
	case *verilog.ReplicateExpr:
		nv := s.eval(inst, x.Count)
		n, ok := nv.Uint()
		if !ok || n > 4096 {
			return 1
		}
		return int(n) * s.natWidth(inst, x.Value)
	case *verilog.Index:
		if base, ok := x.Base.(*verilog.Ident); ok {
			if sig, _, kind := inst.lookup(base.Name); kind == 1 && sig.IsMem {
				return sig.Width
			}
		}
		return 1
	case *verilog.PartSelect:
		mV := s.eval(inst, x.MSB)
		lV := s.eval(inst, x.LSB)
		m64, ok1 := mV.Int()
		l64, ok2 := lV.Int()
		if !ok1 || !ok2 {
			return 1
		}
		w := int(m64 - l64)
		if w < 0 {
			w = -w
		}
		return w + 1
	case *verilog.SysFuncCall:
		switch x.Name {
		case "$time", "$realtime", "$stime":
			return 64
		case "$signed", "$unsigned":
			if len(x.Args) == 1 {
				return s.natWidth(inst, x.Args[0])
			}
		}
		return 32
	}
	return 1
}

// eval evaluates an expression self-determined.
func (s *Simulator) eval(inst *Instance, e verilog.Expr) hdl.Vector {
	return s.evalCtx(inst, e, 0)
}

// evalCtx evaluates an expression with a context width: operands of
// width-transparent operators are zero-extended to the largest of the
// context and their natural widths before the operation, matching
// Verilog's context-determined expression sizing. ctx 0 means
// self-determined.
func (s *Simulator) evalCtx(inst *Instance, e verilog.Expr, ctx int) hdl.Vector {
	switch x := e.(type) {
	case *verilog.Number:
		// Safe to share the AST literal's storage: Vectors are
		// immutable by convention once published (see hdl.Vector.SetBit).
		v := x.Value
		if ctx > v.Width() {
			v = v.Resize(ctx)
		}
		return v
	case *verilog.StringLit:
		// Strings in expression position become packed ASCII vectors.
		w := 8 * len(x.Value)
		if w == 0 {
			w = 8
		}
		v := hdl.NewVector(w, hdl.L0)
		for i := 0; i < len(x.Value); i++ {
			ch := x.Value[len(x.Value)-1-i]
			for b := 0; b < 8; b++ {
				if ch&(1<<b) != 0 {
					v.SetBit(i*8+b, hdl.L1)
				}
			}
		}
		return v
	case *verilog.Ident:
		sig, pv, kind := inst.lookup(x.Name)
		var v hdl.Vector
		switch kind {
		case 1:
			if sig.IsMem {
				panic(sim.Faultf("memory %q used without an index", x.Name))
			}
			v = sig.Val
		case 2:
			v = pv
		default:
			panic(sim.Faultf("reference to undeclared identifier %q", x.Name))
		}
		if ctx > v.Width() {
			v = v.Resize(ctx)
		}
		return v
	case *verilog.Unary:
		switch x.Op {
		case "~", "-", "+":
			w := hdlMax(ctx, s.natWidth(inst, x.X))
			return applyUnary(x.Op, s.evalCtx(inst, x.X, w))
		}
		return applyUnary(x.Op, s.eval(inst, x.X))
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~":
			w := hdlMax(ctx, hdlMax(s.natWidth(inst, x.L), s.natWidth(inst, x.R)))
			return applyBinary(x.Op, s.evalCtx(inst, x.L, w), s.evalCtx(inst, x.R, w))
		case "<<", ">>", "<<<", ">>>", "**":
			w := hdlMax(ctx, s.natWidth(inst, x.L))
			return applyBinary(x.Op, s.evalCtx(inst, x.L, w), s.eval(inst, x.R))
		case "==", "!=", "===", "!==":
			w := hdlMax(s.natWidth(inst, x.L), s.natWidth(inst, x.R))
			return applyBinary(x.Op, s.evalCtx(inst, x.L, w), s.evalCtx(inst, x.R, w))
		case "<", "<=", ">", ">=":
			// Per IEEE 1364, the comparison is signed only when both
			// operands are signed (integers, signed regs, plain decimals).
			if s.exprSigned(inst, x.L) && s.exprSigned(inst, x.R) {
				return signedCompare(x.Op, s.eval(inst, x.L), s.eval(inst, x.R))
			}
			w := hdlMax(s.natWidth(inst, x.L), s.natWidth(inst, x.R))
			return applyBinary(x.Op, s.evalCtx(inst, x.L, w), s.evalCtx(inst, x.R, w))
		}
		return applyBinary(x.Op, s.eval(inst, x.L), s.eval(inst, x.R))
	case *verilog.Ternary:
		branchW := hdlMax(ctx, hdlMax(s.natWidth(inst, x.Then), s.natWidth(inst, x.Else)))
		c := s.eval(inst, x.Cond).ToBool()
		switch c {
		case hdl.L1:
			return s.evalCtx(inst, x.Then, branchW)
		case hdl.L0:
			return s.evalCtx(inst, x.Else, branchW)
		default:
			// X condition: bitwise merge per Verilog semantics.
			t := s.evalCtx(inst, x.Then, branchW)
			f := s.evalCtx(inst, x.Else, branchW)
			w := hdlMax(t.Width(), f.Width())
			t, f = t.Resize(w), f.Resize(w)
			out := hdl.NewVector(w, hdl.LX)
			for i := 0; i < w; i++ {
				if tb := t.Bit(i); tb == f.Bit(i) && tb.IsKnown() {
					out.SetBit(i, tb)
				}
			}
			return out
		}
	case *verilog.ConcatExpr:
		parts := make([]hdl.Vector, 0, len(x.Parts))
		for _, p := range x.Parts {
			parts = append(parts, s.eval(inst, p))
		}
		return hdl.Concat(parts...)
	case *verilog.ReplicateExpr:
		nv := s.eval(inst, x.Count)
		n, ok := nv.Uint()
		if !ok || n > 4096 {
			panic(sim.Faultf("bad replication count"))
		}
		return hdl.Replicate(int(n), s.eval(inst, x.Value))
	case *verilog.Index:
		return s.evalIndex(inst, x)
	case *verilog.PartSelect:
		return s.evalPartSelect(inst, x)
	case *verilog.SysFuncCall:
		return s.evalSysFuncCtx(inst, x, ctx)
	default:
		panic(sim.Faultf("unsupported expression at %v", e.ExprPos()))
	}
}

// evalSysFuncCtx applies context width to $signed/$unsigned results:
// $signed sign-extends into a wider context, $unsigned zero-extends.
func (s *Simulator) evalSysFuncCtx(inst *Instance, x *verilog.SysFuncCall, ctx int) hdl.Vector {
	v := s.evalSysFunc(inst, x)
	if ctx > v.Width() {
		if x.Name == "$signed" {
			return v.SignExtend(ctx)
		}
		return v.Resize(ctx)
	}
	return v
}

// evalIndexValue evaluates an index/select expression honouring its
// signedness: unsigned vectors index as non-negative values (a 2-bit
// address holding 2 must not sign-extend to -2), while signed integers
// may legitimately produce negative (out-of-range) indices.
func (s *Simulator) evalIndexValue(inst *Instance, e verilog.Expr) (int64, bool) {
	v := s.eval(inst, e)
	if s.exprSigned(inst, e) {
		return v.Int()
	}
	u, ok := v.Uint()
	if !ok || u > 1<<31 {
		return 0, false
	}
	return int64(u), ok
}

func (s *Simulator) evalIndex(inst *Instance, x *verilog.Index) hdl.Vector {
	base, ok := x.Base.(*verilog.Ident)
	if !ok {
		// Index of a computed value: evaluate then select bit.
		v := s.eval(inst, x.Base)
		i64, known := s.evalIndexValue(inst, x.Idx)
		if !known {
			return hdl.XFill(1)
		}
		return hdl.Scalar(v.Bit(int(i64)))
	}
	sig, pv, kind := inst.lookup(base.Name)
	i64, known := s.evalIndexValue(inst, x.Idx)
	switch kind {
	case 1:
		if !known {
			if sig.IsMem {
				return hdl.XFill(sig.Width)
			}
			return hdl.XFill(1)
		}
		if sig.IsMem {
			return sig.MemWord(int(i64))
		}
		bit, inRange := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(i64))
		if !inRange {
			return hdl.XFill(1)
		}
		return hdl.Scalar(sig.Val.Bit(bit))
	case 2:
		if !known {
			return hdl.XFill(1)
		}
		return hdl.Scalar(pv.Bit(int(i64)))
	default:
		panic(sim.Faultf("reference to undeclared identifier %q", base.Name))
	}
}

func (s *Simulator) evalPartSelect(inst *Instance, x *verilog.PartSelect) hdl.Vector {
	base, ok := x.Base.(*verilog.Ident)
	if !ok {
		panic(sim.Faultf("part select requires a simple name at %v", x.Pos))
	}
	sig, pv, kind := inst.lookup(base.Name)
	m64, ok1 := s.evalIndexValue(inst, x.MSB)
	l64, ok2 := s.evalIndexValue(inst, x.LSB)
	if !ok1 || !ok2 {
		return hdl.XFill(1)
	}
	m, l := int(m64), int(l64)
	switch kind {
	case 1:
		if sig.IsMem {
			panic(sim.Faultf("part select on memory %q", base.Name))
		}
		loBit, ok1 := sim.DeclIndexToBit(sig.MSB, sig.LSB, l)
		hiBit, ok2 := sim.DeclIndexToBit(sig.MSB, sig.LSB, m)
		if !ok1 || !ok2 {
			w := m - l
			if w < 0 {
				w = -w
			}
			return hdl.XFill(w + 1)
		}
		if loBit > hiBit {
			loBit, hiBit = hiBit, loBit
		}
		return sig.Val.Slice(loBit, hiBit-loBit+1)
	case 2:
		if l > m {
			m, l = l, m
		}
		return pv.Slice(l, m-l+1)
	default:
		panic(sim.Faultf("reference to undeclared identifier %q", base.Name))
	}
}

// exprSigned infers whether an expression is signed under the IEEE 1364
// self-determined typing rules (subset: idents, literals, arithmetic,
// $signed/$unsigned, parenthesised combinations).
func (s *Simulator) exprSigned(inst *Instance, e verilog.Expr) bool {
	switch x := e.(type) {
	case *verilog.Number:
		return x.Signed
	case *verilog.Ident:
		sig, _, kind := inst.lookup(x.Name)
		if kind == 1 {
			return sig.Signed
		}
		return false // parameters treated as unsigned vectors
	case *verilog.Unary:
		switch x.Op {
		case "~", "-", "+":
			return s.exprSigned(inst, x.X)
		}
		return false
	case *verilog.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%", "**":
			return s.exprSigned(inst, x.L) && s.exprSigned(inst, x.R)
		}
		return false
	case *verilog.Ternary:
		return s.exprSigned(inst, x.Then) && s.exprSigned(inst, x.Else)
	case *verilog.SysFuncCall:
		return x.Name == "$signed"
	}
	return false
}

// signedCompare compares two vectors as two's-complement numbers.
func signedCompare(op string, l, r hdl.Vector) hdl.Vector {
	li, ok1 := l.Int()
	ri, ok2 := r.Int()
	if !ok1 || !ok2 {
		return hdl.Scalar(hdl.LX)
	}
	var res bool
	switch op {
	case "<":
		res = li < ri
	case "<=":
		res = li <= ri
	case ">":
		res = li > ri
	case ">=":
		res = li >= ri
	}
	return hdl.FromBool(res)
}

func (s *Simulator) evalSysFunc(inst *Instance, x *verilog.SysFuncCall) hdl.Vector {
	switch x.Name {
	case "$time", "$stime", "$realtime":
		return hdl.FromUint(uint64(s.Kernel.Now()), 64)
	case "$random", "$urandom":
		// One stream per run, drawn in execution order.
		s.rng = s.rng*6364136223846793005 + 1442695040888963407
		return hdl.FromUint(s.rng>>16, 32)
	case "$clog2":
		if len(x.Args) != 1 {
			panic(sim.Faultf("$clog2 expects 1 argument"))
		}
		v := s.eval(inst, x.Args[0])
		n, ok := v.Uint()
		if !ok {
			return hdl.XFill(32)
		}
		c := 0
		for (uint64(1) << c) < n {
			c++
		}
		return hdl.FromUint(uint64(c), 32)
	case "$signed", "$unsigned":
		if len(x.Args) != 1 {
			panic(sim.Faultf("%s expects 1 argument", x.Name))
		}
		return s.eval(inst, x.Args[0])
	default:
		panic(sim.Faultf("unsupported system function %s", x.Name))
	}
}
