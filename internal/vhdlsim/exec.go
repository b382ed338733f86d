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
// attaching them; rearmWait arms them. Callers guarantee a non-empty
// signal set (an empty one would deadlock the process).
func (s *Simulator) buildWaitReg(sigs []*Signal, resume func()) *sim.WaitReg {
	r := sim.NewWaitReg(resume)
	for _, sg := range sigs {
		r.Add(&sg.watch, nil, nil)
	}
	return r
}

// rearmWait re-arms a wait registration: watchers come back alive and
// re-attach to their signals unless a lazily-pruned entry is still
// present in the signal's list.
func (s *Simulator) rearmWait(r *sim.WaitReg) {
	r.Rearm()
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
	sig.eventStamp = s.kernel.ObserverSerial()
	sig.watch.Notify()
}

// scheduleUpdate queues a signal assignment as a pooled kernel update
// record: zero delay lands in the next delta (NBA region); positive
// delays are scheduled in time (VHDL transport-style delivery, applied
// in the active region of the target time step, exactly where the
// closure-based scheduling delivered them).
func (s *Simulator) scheduleUpdate(sig *Signal, v hdl.Vector, delay sim.Time) {
	r := s.kernel.ScheduleUpdate(delay)
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
			panic(faultf("assignment target %q is not a signal", x.Ident))
		}
		return sigTarget{sig: sig, lo: 0, width: sig.Width, ok: true}
	case *vhdl.CallOrIndex:
		sig, _, _, kind := s.lookupValue(inst, nil, x.Name)
		if kind != 1 {
			panic(faultf("assignment target %q is not a signal", x.Name))
		}
		if x.IsSlice {
			l64, ok1 := indexValue(s.eval(inst, en, x.Left))
			r64, ok2 := indexValue(s.eval(inst, en, x.Right))
			if !ok1 || !ok2 {
				return sigTarget{ok: false, width: 1}
			}
			lb, okL := sig.declIndexToBit(int(l64))
			rb, okR := sig.declIndexToBit(int(r64))
			if !okL || !okR {
				return sigTarget{ok: false, width: 1}
			}
			if lb > rb {
				lb, rb = rb, lb
			}
			return sigTarget{sig: sig, lo: lb, width: rb - lb + 1, ok: true}
		}
		if len(x.Args) != 1 {
			panic(faultf("bad index on assignment target %q", x.Name))
		}
		i64, ok := indexValue(s.eval(inst, en, x.Args[0]))
		if !ok {
			return sigTarget{ok: false, width: 1}
		}
		bit, inRange := sig.declIndexToBit(int(i64))
		if !inRange {
			return sigTarget{ok: false, width: 1}
		}
		return sigTarget{sig: sig, lo: bit, width: 1, ok: true}
	default:
		panic(faultf("unsupported assignment target at %v", target.ExprPos()))
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
			panic(faultf("unknown delay value"))
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
	r := s.kernel.ScheduleUpdate(delay)
	r.Sig = t.sig
	r.Val = val.v.Resize(t.width)
	r.Lo = t.lo
	r.Apply = s.updPart
}

// ---------------------------------------------------------------- exec

const stmtBudget = 20_000_000

// tick charges one interpreter step against the run's statement budget.
func (s *Simulator) tick() {
	s.steps++
	if s.steps > stmtBudget {
		panic(faultf("statement budget exceeded (possible infinite loop)"))
	}
}

// frameKind discriminates procMachine continuation frames.
type frameKind uint8

const (
	fSeq       frameKind = iota // statement list; pc indexes the next stmt
	fFor                        // for loop with live loop-variable binding
	fWhile                      // while loop: recheck cond each visit
	fWaitUntil                  // wait until cond: recheck on every wake
)

// frame is one entry of a process's explicit continuation stack. All
// fields reference long-lived AST nodes or the process environment, so
// pushing/popping never allocates once the stack has grown.
type frame struct {
	kind  frameKind
	phase uint8
	pc    int
	stmts []vhdl.Stmt
	st    vhdl.Stmt
	// for-loop state
	cur, limit int64
	down       bool
	slot, prev *varSlot
	had        bool
}

// procMachine is the resumable interpreter state of one VHDL process:
// the explicit continuation (a frame stack over the statement tree),
// the variable environment, and cached wait registrations. step runs
// the interpreter until the next suspension point — a `wait` in any of
// its forms — and returns after arranging reactivation; no goroutine
// sits behind it.
type procMachine struct {
	s        *Simulator
	inst     *Instance
	p        *sim.Process
	ps       *vhdl.ProcessStmt
	en       *env
	stack    []frame
	inited   bool // declarations evaluated, sensitivity registration built
	armed    bool // sensitivity wait armed, body run pending
	topReg   *sim.WaitReg
	waits    map[*vhdl.WaitStmt]*sim.WaitReg
	activate func() // pre-built resume hook shared by all waits
}

// step is the process continuation the kernel dispatches.
func (m *procMachine) step(p *sim.Process) {
	defer m.s.procRecover()
	for {
		for len(m.stack) > 0 {
			if m.runTopFrame() {
				return
			}
		}
		if m.startIteration() {
			return
		}
	}
}

// startIteration begins one execution of the process body once the
// continuation stack has drained. VHDL semantics: every process runs
// once at time zero, then (for sensitivity-list processes) waits on
// its signals between iterations. It returns true when the process
// suspended.
func (m *procMachine) startIteration() bool {
	if !m.inited {
		m.inited = true
		m.initDecls()
		return m.execBody()
	}
	if m.topReg == nil {
		// No sensitivity list: the body must contain waits; if it ran
		// to completion without waiting it loops, and the statement
		// budget catches runaway processes.
		m.s.tick()
		return m.execBody()
	}
	if m.armed {
		m.armed = false
		return m.execBody()
	}
	m.armed = true
	m.s.rearmWait(m.topReg)
	return true
}

// initDecls evaluates process declarations (once; variables persist
// across activations) and builds the sensitivity-list registration.
func (m *procMachine) initDecls() {
	for _, d := range m.ps.Decls {
		switch vd := d.(type) {
		case *vhdl.VarDecl:
			for _, nm := range vd.Names {
				slot, err := m.s.makeVarSlot(m.inst, m.en, vd)
				if err != nil {
					panic(faultf("%v", err))
				}
				m.en.vars[nm] = slot
			}
		case *vhdl.ConstDecl:
			v := m.s.eval(m.inst, m.en, vd.Value)
			m.en.vars[vd.Name] = &varSlot{val: v.v, isInt: v.isInt}
		}
	}
	var sens []*Signal
	for _, se := range m.ps.Sens {
		sens = append(sens, collectSignals(m.inst, se)...)
	}
	if len(sens) > 0 {
		m.topReg = m.s.buildWaitReg(sens, m.activate)
	}
}

func (m *procMachine) execBody() bool {
	m.pushSeq(m.ps.Body)
	return false
}

func (m *procMachine) push(f frame) { m.stack = append(m.stack, f) }

func (m *procMachine) pop() { m.stack = m.stack[:len(m.stack)-1] }

func (m *procMachine) pushSeq(stmts []vhdl.Stmt) {
	if len(stmts) > 0 {
		m.push(frame{kind: fSeq, stmts: stmts})
	}
}

// runTopFrame advances the topmost continuation frame by one step and
// reports whether the process suspended. exec and pushSeq may grow the
// stack and invalidate the frame pointer, so every frame mutation
// happens before they are called.
func (m *procMachine) runTopFrame() bool {
	f := &m.stack[len(m.stack)-1]
	switch f.kind {
	case fSeq:
		if f.pc >= len(f.stmts) {
			m.pop()
			return false
		}
		st := f.stmts[f.pc]
		f.pc++
		return m.exec(st)
	case fFor:
		done := (f.down && f.cur < f.limit) || (!f.down && f.cur > f.limit)
		if done {
			m.restoreLoopVar(f)
			m.pop()
			return false
		}
		m.s.tick()
		f.slot.val = hdl.FromInt(f.cur, 32)
		if f.down {
			f.cur--
		} else {
			f.cur++
		}
		m.pushSeq(f.st.(*vhdl.ForStmt).Body)
		return false
	case fWhile:
		x := f.st.(*vhdl.WhileStmt)
		if !m.s.truthy(m.s.eval(m.inst, m.en, x.Cond)) {
			m.pop()
			return false
		}
		m.s.tick()
		m.pushSeq(x.Body)
		return false
	default: // fWaitUntil
		x := f.st.(*vhdl.WaitStmt)
		if f.phase == 1 && m.s.truthy(m.s.eval(m.inst, m.en, x.Until)) {
			m.pop()
			return false
		}
		f.phase = 1
		m.s.tick()
		m.s.rearmWait(m.untilRegFor(x))
		return true
	}
}

// exec interprets one statement, pushing continuation frames for
// nested control flow. It returns true when the process suspended and
// the step must unwind.
func (m *procMachine) exec(st vhdl.Stmt) bool {
	s, inst, en := m.s, m.inst, m.en
	s.tick()
	switch x := st.(type) {
	case *vhdl.SigAssign:
		s.assignSignal(inst, en, x.Target, x.Value, x.AfterNs)
	case *vhdl.VarAssign:
		s.execVarAssign(inst, en, x)
	case *vhdl.IfStmt:
		for _, br := range x.Branches {
			if s.truthy(s.eval(inst, en, br.Cond)) {
				m.pushSeq(br.Body)
				return false
			}
		}
		m.pushSeq(x.Else)
	case *vhdl.CaseStmt:
		m.execCase(x)
	case *vhdl.ForStmt:
		m.pushFor(x)
	case *vhdl.WhileStmt:
		m.push(frame{kind: fWhile, st: x})
	case *vhdl.WaitStmt:
		return m.execWait(x)
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
	case *vhdl.NullStmt:
		// nothing
	case *vhdl.ExitStmt:
		if x.When == nil || s.truthy(s.eval(inst, en, x.When)) {
			m.exitLoop()
		}
	}
	return false
}

// pushFor evaluates the loop bounds, binds the loop variable, and
// pushes the loop frame.
func (m *procMachine) pushFor(x *vhdl.ForStmt) {
	lV := m.s.eval(m.inst, m.en, x.Left)
	rV := m.s.eval(m.inst, m.en, x.Right)
	l64, ok1 := lV.v.Int()
	r64, ok2 := rV.v.Int()
	if !ok1 || !ok2 {
		panic(faultf("for-loop bounds are not computable"))
	}
	slot := &varSlot{val: hdl.FromInt(l64, 32), isInt: true}
	prev, had := m.en.vars[x.Var]
	m.en.vars[x.Var] = slot
	m.push(frame{
		kind: fFor, st: x,
		cur: l64, limit: r64, down: x.Descending,
		slot: slot, prev: prev, had: had,
	})
}

// restoreLoopVar undoes the loop-variable binding of a fFor frame.
func (m *procMachine) restoreLoopVar(f *frame) {
	x := f.st.(*vhdl.ForStmt)
	if f.had {
		m.en.vars[x.Var] = f.prev
	} else {
		delete(m.en.vars, x.Var)
	}
}

// exitLoop implements `exit`: unwind the continuation stack to just
// past the innermost enclosing loop, restoring its variable binding.
func (m *procMachine) exitLoop() {
	for i := len(m.stack) - 1; i >= 0; i-- {
		f := &m.stack[i]
		if f.kind == fFor || f.kind == fWhile {
			if f.kind == fFor {
				m.restoreLoopVar(f)
			}
			m.stack = m.stack[:i]
			return
		}
	}
	panic(faultf("exit statement outside a loop"))
}

// execCase pushes the matching case arm; the arm body may suspend.
func (m *procMachine) execCase(x *vhdl.CaseStmt) {
	s, inst, en := m.s, m.inst, m.en
	subject := s.eval(inst, en, x.Expr)
	var others *vhdl.CaseArm
	for i := range x.Arms {
		arm := &x.Arms[i]
		if arm.Choices == nil {
			others = arm
			continue
		}
		for _, c := range arm.Choices {
			cv := s.evalCtx(inst, en, c, subject.v.Width())
			lv, rv, _ := numericPair(subject, cv)
			if lv.CaseEq(rv).Equal(hdl.FromBool(true)) {
				m.pushSeq(arm.Body)
				return
			}
		}
	}
	if others != nil {
		m.pushSeq(others.Body)
	}
}

// execWait implements wait; / wait for; / wait until; / wait on as
// suspension points. It returns true when the process suspended.
func (m *procMachine) execWait(x *vhdl.WaitStmt) bool {
	switch {
	case x.Forever:
		// Plain `wait;`: the process is never activated again. With no
		// goroutine behind it there is nothing to tear down; mark it
		// dead so stray activations stay no-ops.
		m.p.Terminate()
		return true
	case x.ForNs != nil && x.Until == nil:
		dv := m.s.eval(m.inst, m.en, x.ForNs)
		d64, ok := dv.v.Uint()
		if !ok {
			panic(faultf("unknown wait duration"))
		}
		m.p.Delay(sim.Time(d64))
		return true
	case x.Until != nil:
		m.push(frame{kind: fWaitUntil, st: x})
		return false
	default: // wait on
		m.s.rearmWait(m.onRegFor(x))
		return true
	}
}

// untilRegFor returns the cached wait registration for a `wait until`
// statement, building it from the condition's signal set on first use.
func (m *procMachine) untilRegFor(x *vhdl.WaitStmt) *sim.WaitReg {
	if r, ok := m.waits[x]; ok {
		return r
	}
	sigs := collectSignals(m.inst, x.Until)
	if len(sigs) == 0 {
		panic(faultf("wait until condition references no signals"))
	}
	r := m.s.buildWaitReg(sigs, m.activate)
	m.cacheWait(x, r)
	return r
}

// onRegFor returns the cached wait registration for a `wait on`
// statement.
func (m *procMachine) onRegFor(x *vhdl.WaitStmt) *sim.WaitReg {
	if r, ok := m.waits[x]; ok {
		return r
	}
	var sigs []*Signal
	for _, nm := range x.OnSignals {
		sigs = append(sigs, collectSignals(m.inst, nm)...)
	}
	if len(sigs) == 0 {
		panic(faultf("wait on references no signals"))
	}
	r := m.s.buildWaitReg(sigs, m.activate)
	m.cacheWait(x, r)
	return r
}

func (m *procMachine) cacheWait(key *vhdl.WaitStmt, r *sim.WaitReg) {
	if m.waits == nil {
		m.waits = make(map[*vhdl.WaitStmt]*sim.WaitReg)
	}
	m.waits[key] = r
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
			panic(faultf("assignment target %q is not a variable", t.Ident))
		}
		val := s.evalCtx(inst, en, x.Value, vs.val.Width())
		vs.val = val.v.Resize(vs.val.Width())
	case *vhdl.CallOrIndex:
		vs, ok := en.vars[t.Name]
		if !ok {
			panic(faultf("assignment target %q is not a variable", t.Name))
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
			panic(faultf("bad index on variable %q", t.Name))
		}
		i64, ok2 := indexValue(s.eval(inst, en, t.Args[0]))
		if !ok2 {
			return
		}
		val := s.evalCtx(inst, en, x.Value, 1)
		vs.val = vs.val.SetSlice(int(i64), val.v.Resize(1))
	default:
		panic(faultf("unsupported variable assignment target"))
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
