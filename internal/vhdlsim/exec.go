package vhdlsim

import (
	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// Process bodies are lowered here into sim.Machine programs whose
// expressions and targets are in the run's lowered form (sim.Expr,
// target), bound once when the run starts: a process
// variable, constant or for loop variable is a slot the lowering binds
// its name to lexically. Signal watching and wait registrations live in
// internal/sim (WatchList, WaitReg), shared with vsim. VHDL waits are
// all level-sensitive (the edge predicates — rising_edge, 'event — are
// evaluated by the awakened process), so every watcher is sim.Level.

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

// target is a signal or variable assignment target in lowered form,
// and the place a signal target's last resolution is kept: resolveSig
// fills ok, lo and width on every execution, before the value is
// evaluated.
type target struct {
	sig  *Signal   // a signal target
	slot *varSlot  // a variable target
	a, b *sim.Expr // the index, or the slice's bounds (b nil: an index)
	msg  string    // the fault a bad target raises, "" for none

	ok        bool // false: discard the write (unknown or out-of-range select)
	lo, width int
}

// lowerTarget lowers an assignment target, which names a signal of inst
// or, for a variable assignment, a variable in scope; its selects read
// process variables.
func (s *Simulator) lowerTarget(inst *Instance, e vhdl.Expr, variable bool) target {
	var t target
	name, kind, what := "", "assignment target", "signal"
	if variable {
		kind, what = "variable", "variable"
	}
	switch x := e.(type) {
	case *vhdl.Name:
		name = x.Ident
	case *vhdl.CallOrIndex:
		name = x.Name
		switch {
		case x.IsSlice:
			t.a, t.b = s.lower(inst, x.Left), s.lower(inst, x.Right)
		case len(x.Args) != 1:
			t.msg = sim.Faultf("bad index on %s %q", kind, x.Name).Msg
		default:
			t.a = s.lower(inst, x.Args[0])
		}
	default:
		if variable {
			return target{msg: "unsupported variable assignment target"}
		}
		return target{msg: sim.Faultf("unsupported assignment target at %v", e.ExprPos()).Msg}
	}
	var ok bool
	if variable {
		t.slot, ok = s.scope[name]
	} else {
		t.sig, ok = inst.Signals[name]
	}
	if !ok {
		return target{msg: sim.Faultf("assignment target %q is not a %s", name, what).Msg}
	}
	return t
}

// resolveSig evaluates a signal target's selects.
func (s *Simulator) resolveSig(t *target) {
	if t.msg != "" {
		panic(sim.Fault{Msg: t.msg})
	}
	t.ok, t.lo, t.width = s.Place(t.a, t.b, t.sig.MSB, t.sig.LSB, false)
}

// assignSignal evaluates and schedules one signal assignment.
func (s *Simulator) assignSignal(t *target, value, after *sim.Expr) {
	s.resolveSig(t)
	val := s.Eval(value, t.width)
	var delay sim.Time
	if after != nil {
		d64, ok := s.Eval(after, 0).Uint()
		if !ok {
			panic(sim.Faultf("unknown delay value"))
		}
		delay = sim.Time(d64)
	}
	if !t.ok {
		return
	}
	if t.lo == 0 && t.width == t.sig.Width {
		s.scheduleUpdate(t.sig, val.Resize(t.width), delay)
		return
	}
	// Partial write: read-modify-write against the value the signal
	// holds when the update applies.
	r := s.Kernel.ScheduleUpdate(delay)
	r.Sig = t.sig
	r.Val = val.Resize(t.width)
	r.Lo = t.lo
	r.Apply = s.updPart
}

// assignVar evaluates and performs one variable assignment. A select
// with an unknown index writes nothing and evaluates no value.
func (s *Simulator) assignVar(t *target, value *sim.Expr) {
	if t.msg != "" {
		panic(sim.Fault{Msg: t.msg})
	}
	lo, w := 0, t.slot.val.Width()
	switch {
	case t.b != nil:
		l64, ok1 := s.Index(t.a)
		r64, ok2 := s.Index(t.b)
		if !ok1 || !ok2 {
			return
		}
		lo, w = int(min(l64, r64)), int(max(l64, r64)-min(l64, r64))+1
	case t.a != nil:
		i64, ok := s.Index(t.a)
		if !ok {
			return
		}
		lo, w = int(i64), 1
	}
	t.slot.val = t.slot.val.SetSlice(lo, s.Eval(value, w).Resize(w))
}

// msgPart is one piece of a lowered report or assert message: literal
// text, or an expression rendered in decimal.
type msgPart struct {
	text string
	e    *sim.Expr
}

// lowerMessage lowers a report or assert message (strings and &
// concatenations of strings and values).
func (s *Simulator) lowerMessage(inst *Instance, e vhdl.Expr) []msgPart {
	s.parts = s.appendMessage(s.parts[:0], inst, e)
	return append(s.msgs.Alloc(len(s.parts))[:0], s.parts...)
}

func (s *Simulator) appendMessage(parts []msgPart, inst *Instance, e vhdl.Expr) []msgPart {
	switch x := e.(type) {
	case nil:
		return parts
	case *vhdl.StrLit:
		return append(parts, msgPart{text: x.Value})
	case *vhdl.BinaryExpr:
		if x.Op == "&" {
			return s.appendMessage(s.appendMessage(parts, inst, x.L), inst, x.R)
		}
	}
	return append(parts, msgPart{e: s.lower(inst, e)})
}

// messageText renders a lowered message; integers render signed.
func (s *Simulator) messageText(parts []msgPart) string {
	msg := ""
	for _, p := range parts {
		if p.e == nil {
			msg += p.text
			continue
		}
		v := s.Eval(p.e, 0)
		if p.e.Signed {
			msg += v.SignedDecString()
		} else {
			msg += v.DecString()
		}
	}
	return msg
}

// ---------------------------------------------------------------- exec

// opSlot is the VHDL slot of an OpLeaf (see sim.Machine).
type opSlot struct {
	node  any       // the statement, or the declaration initialized
	t     target    // an assignment's or declaration's target
	e     *sim.Expr // an assignment's value or initializer, an assertion's condition
	after *sim.Expr // a signal assignment's delay, or nil
	msg   []msgPart // a report's or assertion's message
}

type op = sim.Op[opSlot]

// proc is one process: the process machine running its lowered body.
type proc struct {
	sim.Machine[opSlot]
	s *Simulator
}

// bindProcess starts a process. It initializes its variables and runs
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
	p.s = s
	p.Start(&s.Runtime, name, p)
	clear(s.scope)
	sens := s.lowerList(inst, ps.Sens)
	b := &s.prog
	b.Begin()
	s.lowerDecls(inst, ps.Decls)
	top := b.Label()
	s.lowerStmts(inst, ps.Body)
	if len(s.Reads(sens...)) > 0 {
		w := b.Emit(sim.OpWait, opSlot{})
		b.Op(w).Next = int32(w)
		b.Op(w).Sens = s.AddSens(-1, sim.Level, sens...)
	} else {
		b.Tick()
	}
	b.Jump(top)
	p.SetProgram(b.End())
}

// lowerDecls binds a process's variables and constants, in order, each
// initializer seeing the ones declared before it, and lowers their
// initializations, which run once, when the process starts.
func (s *Simulator) lowerDecls(inst *Instance, decls []vhdl.Decl) {
	for _, d := range decls {
		switch vd := d.(type) {
		case *vhdl.VarDecl:
			for _, nm := range vd.Names {
				x := opSlot{node: vd, t: target{slot: s.vars.Alloc()}}
				sp, err := inst.makeSigSpec("v", vd.Type, nil)
				if err != nil {
					x.t.msg = err.Error()
				}
				x.t.slot.val, x.t.slot.isInt = sp.init, sp.kind == KindInt
				if vd.Init != nil {
					x.e = s.lower(inst, vd.Init)
				}
				s.prog.Emit(sim.OpLeaf, x)
				s.scope[nm] = x.t.slot
			}
		case *vhdl.ConstDecl:
			x := opSlot{node: vd, t: target{slot: s.vars.Alloc()}, e: s.lower(inst, vd.Value)}
			x.t.slot.isInt = x.e.Signed
			s.prog.Emit(sim.OpLeaf, x)
			s.scope[vd.Name] = x.t.slot
		}
	}
}

func (s *Simulator) lowerStmts(inst *Instance, list []vhdl.Stmt) {
	for _, st := range list {
		s.lowerStmt(inst, st)
	}
}

// lowerStmt lowers one statement, which charges a step when it starts.
func (s *Simulator) lowerStmt(inst *Instance, st vhdl.Stmt) {
	b := &s.prog
	b.Tick()
	switch x := st.(type) {
	case *vhdl.SigAssign:
		sl := opSlot{node: x, t: s.lowerTarget(inst, x.Target, false), e: s.lower(inst, x.Value)}
		if x.AfterNs != nil {
			sl.after = s.lower(inst, x.AfterNs)
		}
		b.Emit(sim.OpLeaf, sl)
	case *vhdl.VarAssign:
		b.Emit(sim.OpLeaf, opSlot{node: x, t: s.lowerTarget(inst, x.Target, true), e: s.lower(inst, x.Value)})
	case *vhdl.AssertStmt:
		b.Emit(sim.OpLeaf, opSlot{node: x, e: s.lower(inst, x.Cond), msg: s.lowerMessage(inst, x.Report)})
	case *vhdl.ReportStmt:
		b.Emit(sim.OpLeaf, opSlot{node: x, msg: s.lowerMessage(inst, x.Message)})
	case *vhdl.IfStmt:
		end := -1
		for i, br := range x.Branches {
			test := b.If(s.lower(inst, br.Cond))
			s.lowerStmts(inst, br.Body)
			if i < len(x.Branches)-1 || len(x.Else) > 0 {
				end = b.Jump(end)
			}
			b.Resolve(test, b.Label())
		}
		s.lowerStmts(inst, x.Else)
		b.Resolve(end, b.Label())
	case *vhdl.CaseStmt:
		b.Case(s.lower(inst, x.Expr), choices{}, len(x.Arms), func(i int) []*sim.Expr {
			s.lowerStmts(inst, x.Arms[i].Body)
			return s.lowerList(inst, x.Arms[i].Choices)
		})
	case *vhdl.ForStmt:
		// The loop variable lives in a slot of its own, bound over any
		// variable or signal of its name for the body only.
		left, right := s.lower(inst, x.Left), s.lower(inst, x.Right)
		v := s.vars.Alloc()
		v.isInt = true
		prev, had := s.scope[x.Var]
		s.scope[x.Var] = v
		next := op{E: left, To: right, Var: &v.val, Down: x.Descending, Fault: "for-loop bounds are not computable"}
		b.Counted(next, func() { s.lowerStmts(inst, x.Body) })
		if had {
			s.scope[x.Var] = prev
		} else {
			delete(s.scope, x.Var)
		}
	case *vhdl.WhileStmt:
		b.While(s.lower(inst, x.Cond), func() { s.lowerStmts(inst, x.Body) })
	case *vhdl.ExitStmt:
		skip := -1
		if x.When != nil {
			skip = b.If(s.lower(inst, x.When))
		}
		if !b.Exit() {
			b.Emit(sim.OpLeaf, opSlot{node: x}) // faults when executed
		}
		b.Resolve(skip, b.Label())
	case *vhdl.WaitStmt:
		switch {
		case x.Forever:
			b.Emit(sim.OpHalt, opSlot{})
		case x.ForNs != nil && x.Until == nil:
			d := b.Emit(sim.OpDelay, opSlot{})
			b.Op(d).E, b.Op(d).Fault = s.lower(inst, x.ForNs), "unknown wait duration"
		case x.Until != nil: // suspends once before the first test
			b.Tick()
			w := b.Emit(sim.OpWait, opSlot{})
			b.Op(w).Next = int32(w + 1)
			cond := s.lower(inst, x.Until)
			u := b.Op(b.Emit(sim.OpWaitUntil, opSlot{}))
			u.E, u.Fault = cond, "wait until condition references no signals"
			u.Sens = s.AddSens(-1, sim.Level, cond)
		default: // wait on
			w := b.Emit(sim.OpWait, opSlot{})
			o := b.Op(w)
			o.Next, o.Fault = int32(w), "wait on references no signals"
			o.Sens = s.AddSens(-1, sim.Level, s.lowerList(inst, x.OnSignals)...)
		}
	}
}

// Exec runs a leaf statement or initializes a declared variable or
// constant: variables persist across runs.
func (p *proc) Exec(o *op) {
	s := p.s
	switch x := o.X.node.(type) {
	case *vhdl.VarDecl:
		if o.X.e != nil || o.X.t.msg != "" {
			s.assignVar(&o.X.t, o.X.e)
		}
	case *vhdl.ConstDecl:
		o.X.t.slot.val = s.Eval(o.X.e, 0)
	case *vhdl.SigAssign:
		s.assignSignal(&o.X.t, o.X.e, o.X.after)
	case *vhdl.VarAssign:
		s.assignVar(&o.X.t, o.X.e)
	case *vhdl.AssertStmt:
		if !s.Truth(o.X.e) {
			msg := s.messageText(o.X.msg)
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
		s.reportSeverity(sevOrNote(x.Severity), s.messageText(o.X.msg), x.Pos)
	case *vhdl.ExitStmt:
		panic(sim.Faultf("exit statement outside a loop"))
	}
}

// choices match case choices equal to the subject under the numeric_std
// width rule (sim.Match).
type choices struct{}

func (choices) Match(r *sim.Runtime, subject hdl.Vector, s, c *sim.Expr) bool {
	lv, rv := sim.NumericPair(s.Signed, c.Signed, subject, r.Eval(c, subject.Width()))
	return lv.CaseEq(rv).Equal(hdl.FromBool(true))
}

func sevOrNote(s string) string {
	if s == "" {
		return "note"
	}
	return s
}
