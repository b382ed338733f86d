package vhdlsim

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/vhdl"
)

// Options configures a VHDL simulation run.
type Options struct {
	MaxTime   sim.Time
	File      string
	MaxOutput int

	// CaptureFinal populates Result.Final with the post-run value of
	// every signal (used by the differential harness).
	CaptureFinal bool
}

// Result is the outcome of a simulation.
type Result struct {
	Log          string
	AssertErrors int  // severity error/failure asserts that fired
	Failed       bool // severity failure terminated the run
	TimedOut     bool
	Fault        string
	EndTime      sim.Time
	Events       uint64            // kernel events executed
	Final        map[string]string // hierarchical name -> final value
}

// Simulator runs one elaborated VHDL design on its own event kernel.
// Exactly one activity executes at a time, so the per-run state below
// needs no locks.
type Simulator struct {
	design *Design
	kernel *sim.Kernel
	file   string
	logCap int

	log   []byte
	steps uint64 // interpreter statement budget spent
	fault string // first runtime fault

	assertErrors int
	failed       bool

	// updFull/updPart are the pre-bound scheduled-update apply hooks
	// (method values created once; one per update would allocate).
	updFull func(*sim.NBARecord)
	updPart func(*sim.NBARecord)
}

// Simulate elaborates the entity named top from the units and runs it.
func Simulate(units []*vhdl.DesignFile, top string, opts Options) (*Result, error) {
	d, err := Elaborate(units, top)
	if err != nil {
		return nil, err
	}
	return SimulateDesign(d, opts), nil
}

// SimulateDesign runs an already-elaborated design to completion. The
// run mutates the design's signals, so a Design is simulated at most
// once: its callers are Simulate and the perfbench replay, each of
// which elaborates a fresh Design per run.
func SimulateDesign(d *Design, opts Options) *Result {
	if opts.MaxTime == 0 {
		opts.MaxTime = 1_000_000
	}
	if opts.MaxOutput == 0 {
		opts.MaxOutput = 1 << 20
	}
	if opts.File == "" {
		opts.File = "tb.vhd"
	}

	s := &Simulator{
		design: d,
		kernel: sim.NewKernel(),
		file:   opts.File,
		logCap: opts.MaxOutput,
	}
	s.updFull = s.applyFullUpdate
	s.updPart = s.applyPartUpdate

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

	k := s.kernel
	k.MaxTime = opts.MaxTime
	reason := k.Run()

	res := &Result{
		Log:          string(s.log),
		AssertErrors: s.assertErrors,
		Failed:       s.failed,
		Fault:        s.fault,
		EndTime:      k.Now(),
		Events:       k.Events(),
	}
	if len(res.Log) > s.logCap {
		res.Log = res.Log[:s.logCap]
	}
	switch reason {
	case sim.StopTimeout, sim.StopDeltas, sim.StopEvents:
		res.TimedOut = true
		res.Log += fmt.Sprintf("SIMULATOR: run aborted (%v) at time %d\n", reason, k.Now())
	}
	if res.Fault != "" && !strings.Contains(res.Log, res.Fault) {
		res.Log += "SIMULATOR: " + res.Fault + "\n"
	}
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
		defer s.recoverFault()
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
	fire := func() { s.kernel.Active(update) }
	func() {
		defer s.recoverFault()
		if pb.dir == vhdl.DirIn {
			for _, sg := range collectSignals(pb.parentScope, pb.actual) {
				sg.watch.Watch(fire)
			}
		} else {
			src := pb.childScope.Signals[pb.portName]
			src.watch.Watch(fire)
		}
	}()
	s.kernel.Active(update)
}

func (s *Simulator) bindConcAssign(bc *boundConc) {
	inst, ca := bc.scope, bc.ca
	update := func() {
		defer s.recoverFault()
		for _, w := range ca.Waves {
			if w.Cond != nil && !s.truthy(s.eval(inst, nil, w.Cond)) {
				continue
			}
			s.assignSignal(inst, nil, ca.Target, w.Value, w.AfterNs)
			return
		}
	}
	fire := func() { s.kernel.Active(update) }
	func() {
		defer s.recoverFault()
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
	s.kernel.Active(update)
}

func (s *Simulator) bindProcess(bp *boundProcess) {
	inst, ps := bp.scope, bp.ps
	name := inst.Path + "." + ps.Label
	if ps.Label == "" {
		name = inst.Path + ".process"
	}
	m := &procMachine{s: s, inst: inst, ps: ps, en: newEnv()}
	m.p = s.kernel.NewProcess(name, m.step)
	m.activate = m.p.Activate
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

// setFault records a runtime fault (the first one is the one Result
// reports) and stops the run.
func (s *Simulator) setFault(msg string) {
	if s.fault == "" {
		s.fault = msg
	}
	s.kernel.SetFault(msg)
}

func (s *Simulator) recoverFault() {
	if r := recover(); r != nil {
		if f, ok := r.(runtimeFault); ok {
			s.setFault(f.msg)
			return
		}
		panic(r)
	}
}

func (s *Simulator) procRecover() {
	if r := recover(); r != nil {
		switch f := r.(type) {
		case runtimeFault:
			s.setFault(f.msg)
			panic(sim.TerminateProcess{})
		default:
			panic(r)
		}
	}
}

func (s *Simulator) logf(format string, args ...any) {
	if len(s.log) > s.logCap {
		return
	}
	s.log = fmt.Appendf(s.log, format, args...)
}

// reportSeverity renders an assert/report message in xsim style and
// applies severity semantics: error counts; failure stops the run.
func (s *Simulator) reportSeverity(severity, msg string, pos vhdl.Pos) {
	switch severity {
	case "note", "":
		s.logf("Note: %s\n", msg)
	case "warning":
		s.logf("Warning: %s\n", msg)
	case "error":
		s.assertErrors++
		s.logf("Error: %s\n", msg)
		s.logf("Time: %d ns  Iteration: 0  Process: line_%d\n", s.kernel.Now(), pos.Line)
	case "failure":
		s.assertErrors++
		s.failed = true
		s.logf("Failure: %s\n", msg)
		s.logf("%s:%d: severity FAILURE at %d ns\n", s.file, pos.Line, s.kernel.Now())
		s.kernel.Finish()
		panic(sim.TerminateProcess{})
	default:
		s.logf("Note: %s\n", msg)
	}
}
