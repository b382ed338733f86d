package vhdlsim

import (
	"repro/internal/lex"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// Options configures a VHDL simulation run.
type Options = sim.Options

// Result is the outcome of a simulation.
type Result struct {
	sim.Outcome
	AssertErrors int  // severity error/failure asserts that fired
	Failed       bool // severity failure terminated the run
}

// Simulator runs one elaborated VHDL design on its own event kernel,
// inside the shared run shell. Exactly one activity executes at a
// time, so the per-run state below needs no locks.
type Simulator struct {
	sim.Runtime

	assertErrors int
	failed       bool

	// updFull/updPart are the pre-bound scheduled-update apply hooks
	// (method values created once; one per update would allocate).
	updFull func(*sim.NBARecord)
	updPart func(*sim.NBARecord)

	// procs and prog hold the run's processes: each one's process
	// machine and the statement program it runs.
	procs sim.Arena[proc]
	prog  sim.Builder[opSlot]
}

// Simulate elaborates the entity named top from the units and runs it,
// on a recycled workspace (see workspace).
func Simulate(units []*vhdl.DesignFile, top string, opts Options) (*Result, error) {
	w := workspaces.Get().(*workspace)
	res, err := w.simulate(units, top, opts)
	w.release()
	return res, err
}

// SimulateDesign runs an already-elaborated design to completion. The
// run mutates the design's signals, so a Design is simulated at most
// once. The design stays the caller's: only the Simulator is recycled,
// so the design can be read after the run.
func SimulateDesign(d *Design, opts Options) *Result {
	w := workspaces.Get().(*workspace)
	res := w.s.run(d, opts, nil)
	w.release()
	return res
}

// run runs d to completion on the reset s, with an optional stimulus
// shell whose harness process is bound after the design's own
// processes. The Result copies everything it reports out of s and d.
func (s *Simulator) run(d *Design, opts Options, sh *stimShell) *Result {
	s.Start(opts)

	// Bind runtime machinery in elaboration order, which fixes the
	// order of the time-zero activations.
	for i := range d.portBinds {
		s.bindPort(&d.portBinds[i])
	}
	for i := range d.concAssigns {
		s.bindConcAssign(&d.concAssigns[i])
	}
	for i := range d.processes {
		s.bindProcess(&d.processes[i])
	}
	if sh != nil {
		sh.s = s
		s.StartStimulus(sh.stim, sh)
	}

	res := &Result{Outcome: s.Execute(), AssertErrors: s.assertErrors, Failed: s.failed}
	if opts.CaptureFinal {
		res.Final = map[string]string{}
		var walk func(inst *Instance)
		walk = func(inst *Instance) {
			for name, sg := range inst.Signals {
				res.Final[inst.Path+"."+name] = sg.Val.BinString()
			}
			for _, c := range inst.Children {
				walk(c)
			}
		}
		walk(d.Top)
	}
	return res
}

// bindPort wires one port association: in-ports copy parent actual to
// the child port signal; out-ports copy the child port to the parent
// actual (which must be an assignable name).
func (s *Simulator) bindPort(pb *portBind) {
	update := func() {
		defer s.Recover()
		if pb.dir == vhdl.DirIn {
			val := s.eval(pb.parentScope, nil, pb.actual)
			sig := pb.childScope.Signals[pb.portName]
			s.applyUpdate(sig, val.v)
			return
		}
		// out port: child port drives the parent actual.
		src := pb.childScope.Signals[pb.portName]
		t := s.resolveSigTarget(pb.parentScope, nil, pb.actual)
		if !t.ok {
			return
		}
		if t.lo == 0 && t.width == t.sig.Width {
			s.applyUpdate(t.sig, src.Val)
		} else {
			s.applyUpdate(t.sig, t.sig.Val.SetSlice(t.lo, src.Val.Resize(t.width)))
		}
	}
	fire := func() { s.Kernel.Active(update) }
	func() {
		defer s.Recover()
		if pb.dir == vhdl.DirIn {
			for _, sg := range collectSignals(pb.parentScope, pb.actual) {
				sg.watch.Watch(fire)
			}
		} else {
			src := pb.childScope.Signals[pb.portName]
			src.watch.Watch(fire)
		}
	}()
	s.Kernel.Active(update)
}

func (s *Simulator) bindConcAssign(bc *boundConc) {
	inst, ca := bc.scope, bc.ca
	update := func() {
		defer s.Recover()
		for _, w := range ca.Waves {
			if w.Cond != nil && !s.truthy(s.eval(inst, nil, w.Cond)) {
				continue
			}
			s.assignSignal(inst, nil, ca.Target, w.Value, w.AfterNs)
			return
		}
	}
	fire := func() { s.Kernel.Active(update) }
	func() {
		defer s.Recover()
		seen := map[*Signal]bool{}
		for _, w := range ca.Waves {
			for _, sg := range collectSignals(inst, w.Value) {
				if !seen[sg] {
					seen[sg] = true
					sg.watch.Watch(fire)
				}
			}
			if w.Cond != nil {
				for _, sg := range collectSignals(inst, w.Cond) {
					if !seen[sg] {
						seen[sg] = true
						sg.watch.Watch(fire)
					}
				}
			}
		}
	}()
	s.Kernel.Active(update)
}

func (s *Simulator) makeVarSlot(inst *Instance, en *env, vd *vhdl.VarDecl) (*varSlot, error) {
	// Reuse signal sizing logic through a throwaway signal spec.
	sp, err := inst.makeSigSpec("v", vd.Type, nil)
	if err != nil {
		return nil, err
	}
	slot := &varSlot{val: sp.init, isInt: sp.kind == KindInt}
	if vd.Init != nil {
		v := s.evalCtx(inst, en, vd.Init, slot.val.Width())
		slot.val = v.v.Resize(slot.val.Width())
	}
	return slot, nil
}

// reportSeverity renders an assert/report message in xsim style and
// applies severity semantics: error counts; failure stops the run.
func (s *Simulator) reportSeverity(severity, msg string, pos lex.Pos) {
	switch severity {
	case "note", "":
		s.Logf("Note: %s\n", msg)
	case "warning":
		s.Logf("Warning: %s\n", msg)
	case "error":
		s.assertErrors++
		s.Logf("Error: %s\n", msg)
		s.Logf("Time: %d ns  Iteration: 0  Process: line_%d\n", s.Kernel.Now(), pos.Line)
	case "failure":
		s.assertErrors++
		s.failed = true
		s.Logf("Failure: %s\n", msg)
		s.Logf("%s:%d: severity FAILURE at %d ns\n", s.File, pos.Line, s.Kernel.Now())
		s.Kernel.Finish()
		panic(sim.TerminateProcess{})
	default:
		s.Logf("Note: %s\n", msg)
	}
}
