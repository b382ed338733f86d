package vsim

import (
	"math"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// The watcher/wait-group/re-arm protocol lives in internal/sim
// (WatchList, WaitGroup, WaitReg), shared with vhdlsim; this front-end
// contributes only the Verilog specifics — the IEEE 1364 edge table as
// Trigger/Arm hooks, and @* expansion.

// edgeMatch implements the IEEE 1364 edge table.
func edgeMatch(old, nv hdl.Logic, edge verilog.EdgeKind) bool {
	if old == nv {
		return false
	}
	switch edge {
	case verilog.EdgePos:
		// 0->1, 0->x/z, x/z->1
		return (old == hdl.L0) || (nv == hdl.L1)
	case verilog.EdgeNeg:
		return (old == hdl.L1) || (nv == hdl.L0)
	}
	return false
}

// setSignal writes v (resized to the signal width) and notifies watchers.
func (s *Simulator) setSignal(sig *Signal, v hdl.Vector) {
	v = v.Resize(sig.Width)
	if sig.Val.Equal(v) {
		return
	}
	sig.Val = v
	s.vcdChange(sig)
	sig.watch.Notify()
}

// setMemWord writes one memory word and notifies watchers.
func (s *Simulator) setMemWord(sig *Signal, idx int, v hdl.Vector) {
	if idx < sig.MemLo || idx > sig.MemHi {
		return // out-of-range memory write is discarded
	}
	sig.Mem[idx] = v.Resize(sig.Width)
	sig.watch.Notify()
}

// ------------------------------------------------------------- targets

// target is a resolved primitive assignment destination.
type target struct {
	sig    *Signal
	lo     int // bit offset for vector writes
	width  int
	memIdx int
	isMem  bool
	ok     bool // false: discard the write (out-of-range select)
}

// lhsBinding is where an assignment's targets are resolved, once for
// the run (see targets).
type lhsBinding struct {
	ts      []target
	total   int
	dynamic bool // the shape has runtime indexes
}

// targets resolves an assignment target through its binding. A static
// shape (see staticLHS) resolves on its first execution, when name
// lookup sees the fully elaborated scope, and stays bound. A dynamic one
// re-resolves on every execution into the simulator's scratch buffer,
// which the caller consumes before the next resolve: hot loops execute
// the same assignments every cycle, and neither way allocates then.
func (s *Simulator) targets(b *lhsBinding, inst *Instance, lhs verilog.Expr) ([]target, int) {
	if b.ts == nil && !b.dynamic {
		if !staticLHS(inst, lhs) {
			b.dynamic = true
		} else {
			b.ts, b.total = s.appendTargets(nil, inst, lhs)
		}
	}
	if b.dynamic {
		ts, total := s.appendTargets(s.targetScratch[:0], inst, lhs)
		s.targetScratch = ts[:0]
		return ts, total
	}
	return b.ts, b.total
}

// appendTargets flattens an lvalue into primitive targets appended to
// buf, MSB-first for concatenations, and returns the total width.
func (s *Simulator) appendTargets(buf []target, inst *Instance, lhs verilog.Expr) ([]target, int) {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig, _, kind := inst.lookup(x.Name)
		if kind != 1 {
			panic(sim.Faultf("assignment to non-signal %q", x.Name))
		}
		if sig.IsMem {
			panic(sim.Faultf("assignment to memory %q without an index", x.Name))
		}
		return append(buf, target{sig: sig, lo: 0, width: sig.Width, ok: true}), sig.Width
	case *verilog.Index:
		base, okb := x.Base.(*verilog.Ident)
		if !okb {
			panic(sim.Faultf("unsupported assignment target at %v", x.Pos))
		}
		sig, _, kind := inst.lookup(base.Name)
		if kind != 1 {
			panic(sim.Faultf("assignment to non-signal %q", base.Name))
		}
		i64, known := s.evalIndexValue(inst, x.Idx)
		if sig.IsMem {
			if !known {
				return append(buf, target{ok: false, width: sig.Width}), sig.Width
			}
			return append(buf, target{sig: sig, isMem: true, memIdx: int(i64), width: sig.Width, ok: true}), sig.Width
		}
		if !known {
			return append(buf, target{ok: false, width: 1}), 1
		}
		bit, inRange := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(i64))
		if !inRange {
			return append(buf, target{ok: false, width: 1}), 1
		}
		return append(buf, target{sig: sig, lo: bit, width: 1, ok: true}), 1
	case *verilog.PartSelect:
		base, okb := x.Base.(*verilog.Ident)
		if !okb {
			panic(sim.Faultf("unsupported assignment target at %v", x.Pos))
		}
		sig, _, kind := inst.lookup(base.Name)
		if kind != 1 || sig.IsMem {
			panic(sim.Faultf("bad part-select assignment target %q", base.Name))
		}
		m64, ok1 := s.evalIndexValue(inst, x.MSB)
		l64, ok2 := s.evalIndexValue(inst, x.LSB)
		if !ok1 || !ok2 {
			return append(buf, target{ok: false, width: 1}), 1
		}
		loBit, okLo := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(l64))
		hiBit, okHi := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(m64))
		if !okLo || !okHi {
			w := int(m64 - l64)
			if w < 0 {
				w = -w
			}
			return append(buf, target{ok: false, width: w + 1}), w + 1
		}
		if loBit > hiBit {
			loBit, hiBit = hiBit, loBit
		}
		w := hiBit - loBit + 1
		return append(buf, target{sig: sig, lo: loBit, width: w, ok: true}), w
	case *verilog.ConcatExpr:
		total := 0
		for _, part := range x.Parts { // MSB-first
			var w int
			buf, w = s.appendTargets(buf, inst, part)
			total += w
		}
		return buf, total
	default:
		panic(sim.Faultf("unsupported assignment target at %v", lhs.ExprPos()))
	}
}

// isConstIndex reports whether an index expression's value cannot
// change between executions of its statement: it reads no signals and
// calls no system functions, so it is parameters and literals only.
// Conservative: anything unrecognized is treated as dynamic.
func isConstIndex(inst *Instance, e verilog.Expr) bool {
	con := true
	var walk func(verilog.Expr)
	walk = func(e verilog.Expr) {
		if !con {
			return
		}
		switch x := e.(type) {
		case *verilog.Number, *verilog.StringLit:
		case *verilog.Ident:
			if _, _, kind := inst.lookup(x.Name); kind != 2 {
				con = false // signal read, or undeclared (faults either way)
			}
		case *verilog.Unary:
			walk(x.X)
		case *verilog.Binary:
			walk(x.L)
			walk(x.R)
		case *verilog.Ternary:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *verilog.ConcatExpr:
			for _, p := range x.Parts {
				walk(p)
			}
		case *verilog.ReplicateExpr:
			walk(x.Count)
			walk(x.Value)
		default:
			con = false // $random etc., nested selects
		}
	}
	walk(e)
	return con
}

// staticLHS reports whether an assignment target resolves to the same
// primitive targets on every execution — plain identifiers, constant
// bit/part-selects and memory indexes, and concatenations thereof.
// Static targets are resolved once and the resolution cached
// (pre-bound), so steady-state assignment scheduling does neither
// name lookups nor allocation.
func staticLHS(inst *Instance, lhs verilog.Expr) bool {
	switch x := lhs.(type) {
	case *verilog.Ident:
		return true
	case *verilog.Index:
		return isConstIndex(inst, x.Idx)
	case *verilog.PartSelect:
		return isConstIndex(inst, x.MSB) && isConstIndex(inst, x.LSB)
	case *verilog.ConcatExpr:
		for _, p := range x.Parts {
			if !staticLHS(inst, p) {
				return false
			}
		}
		return true
	}
	return false
}

// applyTargets writes val (of at least totalWidth bits) into the targets,
// slicing MSB-first as Verilog concatenation assignment requires.
func (s *Simulator) applyTargets(ts []target, total int, val hdl.Vector) {
	val = val.Resize(total)
	hi := total
	for _, t := range ts {
		lo := hi - t.width
		part := val.Slice(lo, t.width)
		hi = lo
		if !t.ok {
			continue
		}
		if t.isMem {
			s.setMemWord(t.sig, t.memIdx, part)
			continue
		}
		if t.lo == 0 && t.width == t.sig.Width {
			s.setSignal(t.sig, part)
		} else {
			s.setSignal(t.sig, t.sig.Val.SetSlice(t.lo, part))
		}
	}
}

// scheduleNBA queues one pooled kernel update record per primitive
// target, slicing val MSB-first exactly as applyTargets would at apply
// time (vectors are immutable, so slicing at schedule time is
// equivalent). This replaces the closure-per-assignment NBA
// representation: the records live in the kernel's recycled region
// buffer and the target list is either a cached static binding or the
// simulator's scratch, so a steady-state nonblocking assignment
// performs no allocation at all.
func (s *Simulator) scheduleNBA(ts []target, total int, val hdl.Vector) {
	val = val.Resize(total)
	hi := total
	for i := range ts {
		t := &ts[i]
		lo := hi - t.width
		part := val.Slice(lo, t.width)
		hi = lo
		if !t.ok {
			continue
		}
		r := s.Kernel.NBAPut()
		r.Sig = t.sig
		r.Val = part
		if t.isMem {
			r.Aux = t.memIdx
			r.Apply = s.nbaMem
		} else {
			r.Lo = t.lo
			r.Width = t.width
			r.Apply = s.nbaVec
		}
	}
}

// applyVecNBA commits one pooled vector-target update.
func (s *Simulator) applyVecNBA(r *sim.NBARecord) {
	sig := r.Sig.(*Signal)
	if r.Lo == 0 && r.Width == sig.Width {
		s.setSignal(sig, r.Val)
	} else {
		s.setSignal(sig, sig.Val.SetSlice(r.Lo, r.Val))
	}
}

// applyMemNBA commits one pooled memory-word update.
func (s *Simulator) applyMemNBA(r *sim.NBARecord) {
	s.setMemWord(r.Sig.(*Signal), r.Aux, r.Val)
}

// ---------------------------------------------------------- sensitivity

// buildWait constructs a wait registration (sim.WaitReg) for a
// sensitivity list, @* expanded, without arming it. A wait site
// whose sensitivity list is fixed (every always block and every
// in-body event control) builds one registration and re-arms it per
// pass instead of reallocating the whole structure per wakeup. Edge
// items carry the IEEE 1364 edge table as Trigger/Arm hooks over a
// per-watcher baseline.
func (s *Simulator) buildWait(inst *Instance, sens *verilog.SensList, resume func()) *sim.WaitReg {
	r := sim.NewWaitReg(resume)
	for _, item := range sens.Items {
		it := item
		sigs := collectSignals(inst, it.Sig)
		if len(sigs) == 0 {
			continue
		}
		if it.Edge == verilog.EdgeLevel {
			for _, sg := range sigs {
				r.Add(&sg.watch, nil, nil)
			}
			continue
		}
		evalBit := func() hdl.Logic { return s.eval(inst, it.Sig).Bit(0) }
		for _, sg := range sigs {
			var last hdl.Logic
			trigger := func() bool {
				nv := evalBit()
				old := last
				last = nv
				return edgeMatch(old, nv, it.Edge)
			}
			arm := func() { last = evalBit() }
			r.Add(&sg.watch, trigger, arm)
		}
	}
	return r
}

// collectSignals gathers the signals an expression reads in scope inst.
func collectSignals(inst *Instance, e verilog.Expr) []*Signal {
	var out []*Signal
	seen := map[*Signal]bool{}
	var walk func(verilog.Expr)
	add := func(sig *Signal) {
		if sig != nil && !seen[sig] {
			seen[sig] = true
			out = append(out, sig)
		}
	}
	walk = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			sig, _, kind := inst.lookup(x.Name)
			if kind == 1 {
				add(sig)
			}
		case *verilog.Unary:
			walk(x.X)
		case *verilog.Binary:
			walk(x.L)
			walk(x.R)
		case *verilog.Ternary:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *verilog.ConcatExpr:
			for _, p := range x.Parts {
				walk(p)
			}
		case *verilog.ReplicateExpr:
			walk(x.Count)
			walk(x.Value)
		case *verilog.Index:
			walk(x.Base)
			walk(x.Idx)
		case *verilog.PartSelect:
			walk(x.Base)
			walk(x.MSB)
			walk(x.LSB)
		case *verilog.SysFuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return out
}

// collectStmtReads gathers every expression read by a statement, for
// @* sensitivity expansion.
func collectStmtReads(st verilog.Stmt, out *[]verilog.Expr) {
	switch x := st.(type) {
	case *verilog.Block:
		for _, s := range x.Stmts {
			collectStmtReads(s, out)
		}
	case *verilog.If:
		*out = append(*out, x.Cond)
		collectStmtReads(x.Then, out)
		if x.Else != nil {
			collectStmtReads(x.Else, out)
		}
	case *verilog.Case:
		*out = append(*out, x.Expr)
		for _, item := range x.Items {
			*out = append(*out, item.Exprs...)
			collectStmtReads(item.Body, out)
		}
	case *verilog.For:
		collectStmtReads(x.Init, out)
		*out = append(*out, x.Cond)
		collectStmtReads(x.Step, out)
		collectStmtReads(x.Body, out)
	case *verilog.While:
		*out = append(*out, x.Cond)
		collectStmtReads(x.Body, out)
	case *verilog.Repeat:
		*out = append(*out, x.Count)
		collectStmtReads(x.Body, out)
	case *verilog.Forever:
		collectStmtReads(x.Body, out)
	case *verilog.Assign:
		*out = append(*out, x.RHS)
		// Index expressions on the LHS are also reads.
		collectLValueIndexReads(x.LHS, out)
	case *verilog.DelayStmt:
		collectStmtReads(x.Body, out)
	case *verilog.EventWait:
		collectStmtReads(x.Body, out)
	case *verilog.SysCall:
		*out = append(*out, x.Args...)
	}
}

func collectLValueIndexReads(e verilog.Expr, out *[]verilog.Expr) {
	switch x := e.(type) {
	case *verilog.Index:
		*out = append(*out, x.Idx)
		collectLValueIndexReads(x.Base, out)
	case *verilog.PartSelect:
		*out = append(*out, x.MSB, x.LSB)
		collectLValueIndexReads(x.Base, out)
	case *verilog.ConcatExpr:
		for _, p := range x.Parts {
			collectLValueIndexReads(p, out)
		}
	}
}

// expandStar converts @* into an explicit level sensitivity list.
func (s *Simulator) expandStar(body verilog.Stmt) *verilog.SensList {
	var reads []verilog.Expr
	collectStmtReads(body, &reads)
	sl := &verilog.SensList{}
	for _, e := range reads {
		sl.Items = append(sl.Items, verilog.SensItem{Edge: verilog.EdgeLevel, Sig: e})
	}
	return sl
}

// ---------------------------------------------------------------- exec

// opSlot is the Verilog slot of a program op (see sim.Machine).
type opSlot struct {
	stmt verilog.Stmt      // OpLeaf: assignment or system task; OpCase: the case; OpWait: the body @* expands from
	expr verilog.Expr      // OpIf, OpWaitUntil: the condition; OpDelay: the amount; OpNext: the repeat count
	sens *verilog.SensList // OpWait: the event control
	lhs  lhsBinding        // OpLeaf: an assignment's targets
}

type op = sim.Op[opSlot]

// proc is one always or initial block: the process machine running its
// lowered body, and the scope the leaf hooks evaluate in.
type proc struct {
	sim.Machine[opSlot]
	s    *Simulator
	inst *Instance
}

// bindProcess starts an initial block (always false), which runs its
// body once, or an always block, which runs it over and over: after
// waiting on its event control, or without one after charging a step
// (the statement budget catches a body that never waits).
func (s *Simulator) bindProcess(inst *Instance, name string, body verilog.Stmt, sens *verilog.SensList, always bool) {
	p := s.procs.Alloc()
	p.s, p.inst = s, inst
	p.Start(&s.Runtime, name, p)
	b := &s.prog
	b.Begin()
	switch {
	case !always:
		lowerStmt(b, body)
		b.Emit(sim.OpHalt, opSlot{})
	case sens == nil:
		top := b.Label()
		b.Tick()
		lowerStmt(b, body)
		b.Jump(top)
	default:
		b.Op(b.Emit(sim.OpWait, opSlot{stmt: body, sens: sens})).Next = 0
		lowerStmt(b, body)
		b.Jump(0)
	}
	p.SetProgram(b.End())
}

// lowerStmt lowers one statement, which charges a step when it starts.
func lowerStmt(b *sim.Builder[opSlot], st verilog.Stmt) {
	b.Tick()
	switch x := st.(type) {
	case *verilog.Block:
		for _, inner := range x.Stmts {
			lowerStmt(b, inner)
		}
	case *verilog.If:
		test := b.Emit(sim.OpIf, opSlot{expr: x.Cond})
		lowerStmt(b, x.Then)
		if x.Else != nil {
			end := b.Jump(-1)
			b.Resolve(test, b.Label())
			lowerStmt(b, x.Else)
			test = end
		}
		b.Resolve(test, b.Label())
	case *verilog.Case:
		b.Case(opSlot{stmt: x}, len(x.Items), func(i int) { lowerStmt(b, x.Items[i].Body) })
	case *verilog.For:
		lowerStmt(b, x.Init)
		b.While(opSlot{expr: x.Cond}, func() {
			lowerStmt(b, x.Body)
			lowerStmt(b, x.Step)
		})
	case *verilog.While:
		b.While(opSlot{expr: x.Cond}, func() { lowerStmt(b, x.Body) })
	case *verilog.Repeat:
		b.Counted(opSlot{expr: x.Count}, func() { lowerStmt(b, x.Body) })
	case *verilog.Forever:
		top := b.Label()
		b.Tick()
		lowerStmt(b, x.Body)
		b.Jump(top)
	case *verilog.Assign, *verilog.SysCall:
		b.Emit(sim.OpLeaf, opSlot{stmt: x})
	case *verilog.DelayStmt:
		b.Emit(sim.OpDelay, opSlot{expr: x.Amount})
		lowerGuarded(b, x.Body)
	case *verilog.EventWait:
		w := b.Emit(sim.OpWait, opSlot{stmt: x.Body, sens: x.Sens})
		b.Op(w).Next = int32(w)
		lowerGuarded(b, x.Body)
	case *verilog.WaitStmt:
		b.Label() // resumes test the condition again
		b.Emit(sim.OpWaitUntil, opSlot{expr: x.Cond})
		lowerStmt(b, x.Body)
	}
}

// lowerGuarded lowers the statement a delay or event control guards; a
// bare `#d;` or `@(...);` guards nothing, not even a step.
func lowerGuarded(b *sim.Builder[opSlot], st verilog.Stmt) {
	if _, null := st.(*verilog.Null); st != nil && !null {
		lowerStmt(b, st)
	}
}

// Exec runs an assignment or a system task.
func (p *proc) Exec(o *op) {
	s, inst := p.s, p.inst
	switch x := o.X.stmt.(type) {
	case *verilog.Assign:
		ts, total := s.targets(&o.X.lhs, inst, x.LHS)
		val := s.evalCtx(inst, x.RHS, total)
		if x.Blocking {
			s.applyTargets(ts, total, val)
		} else {
			// NBA updates apply later, as typed kernel records carrying
			// their own copy of the resolved target bounds — nothing from
			// the scratch resolution is retained.
			s.scheduleNBA(ts, total, val)
		}
	case *verilog.SysCall:
		s.execSysCall(inst, x)
	}
}

func (p *proc) Cond(o *op) bool { return p.s.eval(p.inst, o.X.expr).ToBool() == hdl.L1 }

// Case takes the first item with a pattern matching the subject, else
// the default item.
func (p *proc) Case(o *op) int {
	s, inst := p.s, p.inst
	x := o.X.stmt.(*verilog.Case)
	subject := s.eval(inst, x.Expr)
	deflt := len(x.Items)
	for i := range x.Items {
		if x.Items[i].Exprs == nil {
			deflt = i
		}
		for _, pat := range x.Items[i].Exprs {
			if caseMatches(x.Kind, subject, s.eval(inst, pat)) {
				return i
			}
		}
	}
	return deflt
}

func (p *proc) Delay(o *op) sim.Time {
	n, ok := p.s.eval(p.inst, o.X.expr).Uint()
	if !ok {
		panic(sim.Faultf("delay amount is unknown"))
	}
	return sim.Time(n)
}

// Wait builds an event control's registration, expanding @* from the
// statement it guards, or a wait (cond)'s level-sensitive one, which
// must watch a signal.
func (p *proc) Wait(o *op, resume func()) *sim.WaitReg {
	sens := o.X.sens
	if sens == nil {
		sl := &verilog.SensList{Items: []verilog.SensItem{{Edge: verilog.EdgeLevel, Sig: o.X.expr}}}
		r := p.s.buildWait(p.inst, sl, resume)
		if r.Empty() {
			panic(sim.Faultf("wait condition can never change"))
		}
		return r
	}
	if sens.Star {
		sens = p.s.expandStar(o.X.stmt)
	}
	return p.s.buildWait(p.inst, sens, resume)
}

// Loop counts a repeat from 1; an unknown count runs no pass, and one
// past int64 could not run out before the statement budget does.
func (p *proc) Loop(o *op) (first, last int64, down bool) {
	n, ok := p.s.eval(p.inst, o.X.expr).Uint()
	if !ok {
		return 1, 0, false
	}
	return 1, int64(min(n, math.MaxInt64)), false
}

// Iter and Leave have nothing to do: a repeat binds no variable.
func (p *proc) Iter(*op, int64) {}

func (p *proc) Leave(*op) {}

// caseMatches compares subject and pattern under case/casez/casex rules.
func caseMatches(kind verilog.CaseKind, subject, pat hdl.Vector) bool {
	w := subject.Width()
	if pat.Width() > w {
		w = pat.Width()
	}
	sv, pv := subject.Resize(w), pat.Resize(w)
	for i := 0; i < w; i++ {
		sb, pb := sv.Bit(i), pv.Bit(i)
		switch kind {
		case verilog.CaseZ:
			if sb == hdl.LZ || pb == hdl.LZ {
				continue
			}
		case verilog.CaseX:
			if sb == hdl.LZ || pb == hdl.LZ || sb == hdl.LX || pb == hdl.LX {
				continue
			}
		}
		if sb != pb {
			return false
		}
	}
	return true
}
