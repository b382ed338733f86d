package vhdlsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// The watcher/wait-group/re-arm protocol lives in internal/sim
// (WatchList, WaitGroup, WaitReg), shared with vsim. VHDL waits are
// all level-sensitive (the edge predicates — rising_edge, 'event —
// are evaluated by the awakened process), so registrations carry no
// Trigger hooks.

// buildWaitReg constructs the watchers for a signal set without
// attaching them; Rearm arms them. Callers guarantee a non-empty signal
// set (an empty one would deadlock the process).
func (s *Simulator) buildWaitReg(sigs []*Signal, resume func()) *sim.WaitReg {
	r := sim.NewWaitReg(resume)
	for _, sg := range sigs {
		r.Add(&sg.watch, nil, nil)
	}
	return r
}

// applyUpdate commits a signal value change, stamping the observation
// delta and notifying watchers. Same-value writes are transactions
// without events and are ignored.
//
// The stamp is the kernel's run-global delta serial of the cycle in
// which awakened processes run.
func (s *Simulator) applyUpdate(sig *Signal, v hdl.Vector) {
	v = v.Resize(sig.Width)
	if sig.Val.Equal(v) {
		return
	}
	sig.Prev = sig.Val
	sig.Val = v
	sig.eventStamp = s.Kernel.ObserverSerial()
	sig.watch.Notify()
}

// scheduleUpdate queues a signal assignment as a pooled kernel update
// record: zero delay lands in the next delta (NBA region); positive
// delays are scheduled in time (VHDL transport-style delivery, applied
// in the active region of the target time step, exactly where the
// closure-based scheduling delivered them).
func (s *Simulator) scheduleUpdate(sig *Signal, v hdl.Vector, delay sim.Time) {
	r := s.Kernel.ScheduleUpdate(delay)
	r.Sig = sig
	r.Val = v
	r.Apply = s.updFull
}

// applyFullUpdate commits a pooled whole-signal update record.
func (s *Simulator) applyFullUpdate(r *sim.NBARecord) {
	s.applyUpdate(r.Sig.(*Signal), r.Val)
}

// applyPartUpdate commits a pooled part-write update record:
// read-modify-write against the value the signal holds when the update
// applies.
func (s *Simulator) applyPartUpdate(r *sim.NBARecord) {
	sig := r.Sig.(*Signal)
	s.applyUpdate(sig, sig.Val.SetSlice(r.Lo, r.Val))
}

// sigTarget is a resolved signal assignment destination.
type sigTarget struct {
	sig   *Signal
	lo    int
	width int
	ok    bool
}

// resolveSigTarget resolves an assignment target expression.
func (s *Simulator) resolveSigTarget(inst *Instance, en *env, target vhdl.Expr) sigTarget {
	switch x := target.(type) {
	case *vhdl.Name:
		sig, _, _, kind := s.lookupValue(inst, nil, x.Ident)
		if kind != 1 {
			panic(sim.Faultf("assignment target %q is not a signal", x.Ident))
		}
		return sigTarget{sig: sig, lo: 0, width: sig.Width, ok: true}
	case *vhdl.CallOrIndex:
		sig, _, _, kind := s.lookupValue(inst, nil, x.Name)
		if kind != 1 {
			panic(sim.Faultf("assignment target %q is not a signal", x.Name))
		}
		if x.IsSlice {
			l64, ok1 := indexValue(s.eval(inst, en, x.Left))
			r64, ok2 := indexValue(s.eval(inst, en, x.Right))
			if !ok1 || !ok2 {
				return sigTarget{ok: false, width: 1}
			}
			lb, okL := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(l64))
			rb, okR := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(r64))
			if !okL || !okR {
				return sigTarget{ok: false, width: 1}
			}
			if lb > rb {
				lb, rb = rb, lb
			}
			return sigTarget{sig: sig, lo: lb, width: rb - lb + 1, ok: true}
		}
		if len(x.Args) != 1 {
			panic(sim.Faultf("bad index on assignment target %q", x.Name))
		}
		i64, ok := indexValue(s.eval(inst, en, x.Args[0]))
		if !ok {
			return sigTarget{ok: false, width: 1}
		}
		bit, inRange := sim.DeclIndexToBit(sig.MSB, sig.LSB, int(i64))
		if !inRange {
			return sigTarget{ok: false, width: 1}
		}
		return sigTarget{sig: sig, lo: bit, width: 1, ok: true}
	default:
		panic(sim.Faultf("unsupported assignment target at %v", target.ExprPos()))
	}
}

// assignSignal evaluates and schedules one signal assignment.
func (s *Simulator) assignSignal(inst *Instance, en *env, target vhdl.Expr, valExpr vhdl.Expr, afterNs vhdl.Expr) {
	t := s.resolveSigTarget(inst, en, target)
	val := s.evalCtx(inst, en, valExpr, t.width)
	var delay sim.Time
	if afterNs != nil {
		dv := s.eval(inst, en, afterNs)
		d64, ok := dv.v.Uint()
		if !ok {
			panic(sim.Faultf("unknown delay value"))
		}
		delay = sim.Time(d64)
	}
	if !t.ok {
		return
	}
	if t.lo == 0 && t.width == t.sig.Width {
		s.scheduleUpdate(t.sig, val.v.Resize(t.width), delay)
		return
	}
	// Partial write: read-modify-write against the value the signal
	// will hold when the update applies; we approximate with current
	// value captured at apply time.
	r := s.Kernel.ScheduleUpdate(delay)
	r.Sig = t.sig
	r.Val = val.v.Resize(t.width)
	r.Lo = t.lo
	r.Apply = s.updPart
}

// ---------------------------------------------------------------- exec

// opSlot is the VHDL slot of a program op (see sim.Machine).
type opSlot struct {
	stmt  vhdl.Stmt   // OpLeaf: the statement; OpCase: the case; OpNext: the for loop; OpWait: a wait on
	expr  vhdl.Expr   // OpIf, OpWaitUntil: the condition; OpDelay: the duration
	decls []vhdl.Decl // the first op of a process with declarations

	loopVar varSlot  // OpNext: the loop variable
	prev    *varSlot // OpNext: the binding it shadows, if had
	had     bool
}

type op = sim.Op[opSlot]

// proc is one process: the process machine running its lowered body,
// and the scope and variables the leaf hooks evaluate in.
type proc struct {
	sim.Machine[opSlot]
	s    *Simulator
	inst *Instance
	en   env
}

// bindProcess starts a process. It evaluates its declarations and runs
// its body at time zero; then, with a sensitivity list naming a signal,
// it waits on the list before every further run, and without one it
// charges a step and runs the body again (the statement budget catches
// a body that never waits).
func (s *Simulator) bindProcess(bp *boundProcess) {
	inst, ps := bp.scope, bp.ps
	name := inst.Path + "." + ps.Label
	if ps.Label == "" {
		name = inst.Path + ".process"
	}
	p := s.procs.Alloc()
	p.s, p.inst = s, inst
	p.en.vars = map[string]*varSlot{}
	resume := p.Start(&s.Runtime, name, p)
	var sens []*Signal
	for _, se := range ps.Sens {
		sens = append(sens, collectSignals(inst, se)...)
	}
	b := &s.prog
	b.Begin()
	if len(ps.Decls) > 0 {
		b.Emit(sim.OpLeaf, opSlot{decls: ps.Decls})
	}
	top := b.Label()
	lowerStmts(b, ps.Body)
	if len(sens) > 0 {
		w := b.Emit(sim.OpWait, opSlot{})
		b.Op(w).Next = int32(w)
		b.Op(w).Wait = s.buildWaitReg(sens, resume)
	} else {
		b.Tick()
	}
	b.Jump(top)
	p.SetProgram(b.End())
}

func lowerStmts(b *sim.Builder[opSlot], list []vhdl.Stmt) {
	for _, st := range list {
		lowerStmt(b, st)
	}
}

// lowerStmt lowers one statement, which charges a step when it starts.
func lowerStmt(b *sim.Builder[opSlot], st vhdl.Stmt) {
	b.Tick()
	switch x := st.(type) {
	case *vhdl.SigAssign, *vhdl.VarAssign, *vhdl.AssertStmt, *vhdl.ReportStmt:
		b.Emit(sim.OpLeaf, opSlot{stmt: x})
	case *vhdl.IfStmt:
		end := -1
		for i, br := range x.Branches {
			test := b.Emit(sim.OpIf, opSlot{expr: br.Cond})
			lowerStmts(b, br.Body)
			if i < len(x.Branches)-1 || len(x.Else) > 0 {
				end = b.Jump(end)
			}
			b.Resolve(test, b.Label())
		}
		lowerStmts(b, x.Else)
		b.Resolve(end, b.Label())
	case *vhdl.CaseStmt:
		b.Case(opSlot{stmt: x}, len(x.Arms), func(i int) { lowerStmts(b, x.Arms[i].Body) })
	case *vhdl.ForStmt:
		b.Counted(opSlot{stmt: x}, func() { lowerStmts(b, x.Body) })
	case *vhdl.WhileStmt:
		b.While(opSlot{expr: x.Cond}, func() { lowerStmts(b, x.Body) })
	case *vhdl.ExitStmt:
		skip := -1
		if x.When != nil {
			skip = b.Emit(sim.OpIf, opSlot{expr: x.When})
		}
		if !b.Exit() {
			b.Emit(sim.OpLeaf, opSlot{stmt: x}) // faults when executed
		}
		b.Resolve(skip, b.Label())
	case *vhdl.WaitStmt:
		switch {
		case x.Forever:
			b.Emit(sim.OpHalt, opSlot{})
		case x.ForNs != nil && x.Until == nil:
			b.Emit(sim.OpDelay, opSlot{expr: x.ForNs})
		case x.Until != nil: // suspends once before the first test
			b.Tick()
			w := b.Emit(sim.OpWait, opSlot{})
			b.Op(w).Next = int32(w + 1)
			b.Emit(sim.OpWaitUntil, opSlot{expr: x.Until})
		default: // wait on
			w := b.Emit(sim.OpWait, opSlot{stmt: x})
			b.Op(w).Next = int32(w)
		}
	}
}

// Exec runs a leaf statement, or, for the statement-less first op,
// evaluates the process declarations: variables persist across runs.
func (p *proc) Exec(o *op) {
	s, inst, en := p.s, p.inst, &p.en
	switch x := o.X.stmt.(type) {
	case nil:
		for _, d := range o.X.decls {
			switch vd := d.(type) {
			case *vhdl.VarDecl:
				for _, nm := range vd.Names {
					slot, err := s.makeVarSlot(inst, en, vd)
					if err != nil {
						panic(sim.Faultf("%v", err))
					}
					en.vars[nm] = slot
				}
			case *vhdl.ConstDecl:
				v := s.eval(inst, en, vd.Value)
				en.vars[vd.Name] = &varSlot{val: v.v, isInt: v.isInt}
			}
		}
	case *vhdl.SigAssign:
		s.assignSignal(inst, en, x.Target, x.Value, x.AfterNs)
	case *vhdl.VarAssign:
		s.execVarAssign(inst, en, x)
	case *vhdl.AssertStmt:
		if !s.truthy(s.eval(inst, en, x.Cond)) {
			msg := s.messageText(inst, en, x.Report)
			if msg == "" {
				msg = "Assertion violation."
			}
			sev := x.Severity
			if sev == "" {
				sev = "error" // VHDL default assert severity
			}
			s.reportSeverity(sev, msg, x.Pos)
		}
	case *vhdl.ReportStmt:
		s.reportSeverity(sevOrNote(x.Severity), s.messageText(inst, en, x.Message), x.Pos)
	case *vhdl.ExitStmt:
		panic(sim.Faultf("exit statement outside a loop"))
	}
}

func (p *proc) Cond(o *op) bool { return p.s.truthy(p.s.eval(p.inst, &p.en, o.X.expr)) }

// Case takes the first arm with a choice equal to the subject, else the
// others arm.
func (p *proc) Case(o *op) int {
	s, inst, en := p.s, p.inst, &p.en
	x := o.X.stmt.(*vhdl.CaseStmt)
	subject := s.eval(inst, en, x.Expr)
	others := len(x.Arms)
	for i := range x.Arms {
		if x.Arms[i].Choices == nil {
			others = i
		}
		for _, c := range x.Arms[i].Choices {
			cv := s.evalCtx(inst, en, c, subject.v.Width())
			lv, rv, _ := numericPair(subject, cv)
			if lv.CaseEq(rv).Equal(hdl.FromBool(true)) {
				return i
			}
		}
	}
	return others
}

func (p *proc) Delay(o *op) sim.Time {
	d64, ok := p.s.eval(p.inst, &p.en, o.X.expr).v.Uint()
	if !ok {
		panic(sim.Faultf("unknown wait duration"))
	}
	return sim.Time(d64)
}

// Wait builds the registration of a wait until, on its condition's
// signals, or of a wait on; either must watch a signal.
func (p *proc) Wait(o *op, resume func()) *sim.WaitReg {
	var sigs []*Signal
	if o.X.expr != nil {
		sigs = collectSignals(p.inst, o.X.expr)
		if len(sigs) == 0 {
			panic(sim.Faultf("wait until condition references no signals"))
		}
	} else {
		for _, nm := range o.X.stmt.(*vhdl.WaitStmt).OnSignals {
			sigs = append(sigs, collectSignals(p.inst, nm)...)
		}
		if len(sigs) == 0 {
			panic(sim.Faultf("wait on references no signals"))
		}
	}
	return p.s.buildWaitReg(sigs, resume)
}

// Loop evaluates a for loop's bounds and binds its variable, which
// lives in the slot, over any variable or signal of its name.
func (p *proc) Loop(o *op) (first, last int64, down bool) {
	x := o.X.stmt.(*vhdl.ForStmt)
	lV := p.s.eval(p.inst, &p.en, x.Left)
	rV := p.s.eval(p.inst, &p.en, x.Right)
	l64, ok1 := lV.v.Int()
	r64, ok2 := rV.v.Int()
	if !ok1 || !ok2 {
		panic(sim.Faultf("for-loop bounds are not computable"))
	}
	sl := &o.X
	sl.loopVar = varSlot{val: hdl.FromInt(l64, 32), isInt: true}
	sl.prev, sl.had = p.en.vars[x.Var]
	p.en.vars[x.Var] = &sl.loopVar
	return l64, r64, x.Descending
}

func (p *proc) Iter(o *op, v int64) { o.X.loopVar.val = hdl.FromInt(v, 32) }

// Leave restores the binding the loop variable shadowed.
func (p *proc) Leave(o *op) {
	name := o.X.stmt.(*vhdl.ForStmt).Var
	if o.X.had {
		p.en.vars[name] = o.X.prev
	} else {
		delete(p.en.vars, name)
	}
}

func sevOrNote(s string) string {
	if s == "" {
		return "note"
	}
	return s
}

// truthy interprets a value as a condition: boolean true or bit '1'.
func (s *Simulator) truthy(v value) bool {
	return v.v.ToBool() == hdl.L1
}

func (s *Simulator) execVarAssign(inst *Instance, en *env, x *vhdl.VarAssign) {
	switch t := x.Target.(type) {
	case *vhdl.Name:
		vs, ok := en.vars[t.Ident]
		if !ok {
			panic(sim.Faultf("assignment target %q is not a variable", t.Ident))
		}
		val := s.evalCtx(inst, en, x.Value, vs.val.Width())
		vs.val = val.v.Resize(vs.val.Width())
	case *vhdl.CallOrIndex:
		vs, ok := en.vars[t.Name]
		if !ok {
			panic(sim.Faultf("assignment target %q is not a variable", t.Name))
		}
		if t.IsSlice {
			l64, ok1 := indexValue(s.eval(inst, en, t.Left))
			r64, ok2 := indexValue(s.eval(inst, en, t.Right))
			if !ok1 || !ok2 {
				return
			}
			lo, hi := int(r64), int(l64)
			if lo > hi {
				lo, hi = hi, lo
			}
			val := s.evalCtx(inst, en, x.Value, hi-lo+1)
			vs.val = vs.val.SetSlice(lo, val.v.Resize(hi-lo+1))
			return
		}
		if len(t.Args) != 1 {
			panic(sim.Faultf("bad index on variable %q", t.Name))
		}
		i64, ok2 := indexValue(s.eval(inst, en, t.Args[0]))
		if !ok2 {
			return
		}
		val := s.evalCtx(inst, en, x.Value, 1)
		vs.val = vs.val.SetSlice(int(i64), val.v.Resize(1))
	default:
		panic(sim.Faultf("unsupported variable assignment target"))
	}
}

// collectSignals gathers signals read by an expression.
func collectSignals(inst *Instance, e vhdl.Expr) []*Signal {
	var out []*Signal
	seen := map[*Signal]bool{}
	add := func(sig *Signal) {
		if sig != nil && !seen[sig] {
			seen[sig] = true
			out = append(out, sig)
		}
	}
	var walk func(vhdl.Expr)
	walk = func(e vhdl.Expr) {
		switch x := e.(type) {
		case *vhdl.Name:
			if sig, ok := inst.Signals[x.Ident]; ok {
				add(sig)
			}
		case *vhdl.UnaryExpr:
			walk(x.X)
		case *vhdl.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *vhdl.CallOrIndex:
			if sig, ok := inst.Signals[x.Name]; ok {
				add(sig)
			}
			for _, a := range x.Args {
				walk(a)
			}
			if x.IsSlice {
				walk(x.Left)
				walk(x.Right)
			}
		case *vhdl.AttrExpr:
			if sig, ok := inst.Signals[x.Base]; ok {
				add(sig)
			}
		case *vhdl.AggregateExpr:
			walk(x.Others)
		}
	}
	walk(e)
	return out
}

// messageText renders a report/assert message expression (strings and
// simple & concatenations of strings).
func (s *Simulator) messageText(inst *Instance, en *env, e vhdl.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *vhdl.StrLit:
		return x.Value
	case *vhdl.BinaryExpr:
		if x.Op == "&" {
			return s.messageText(inst, en, x.L) + s.messageText(inst, en, x.R)
		}
	}
	// Fall back to a numeric rendering.
	v := s.eval(inst, en, e)
	return v.v.DecString()
}
