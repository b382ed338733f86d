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

	// procs, prog, vars and msgs hold the run's processes: each one's
	// process machine and the statement program it runs, their
	// variables, and their lowered messages. scope and
	// parts are lowering scratch: the variables in scope by name, and
	// one message's parts.
	procs sim.Arena[proc]
	prog  sim.Builder[opSlot]
	vars  sim.Arena[varSlot]
	msgs  sim.Slab[msgPart]
	scope map[string]*varSlot
	parts []msgPart

	// concs are the run's port associations and concurrent assignments
	// in lowered form.
	concs sim.Arena[concRT]
	waves sim.Slab[wave]
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
		d.arena.Each(func(sg *Signal) { res.Final[sg.Name] = sg.Val.BinString() })
	}
	return res
}

// concRT is one concurrent assignment or port association in lowered
// form. A port association is an in-port's actual driving the child
// port, or an out-port's child port driving the actual, which must be
// an assignable name; it applies at once, its value self-determined.
type concRT struct {
	s      *Simulator
	port   bool
	target target
	waves  []wave
}

// wave is one conditional waveform of a concurrent assignment.
type wave struct {
	cond, value, after *sim.Expr // cond and after nil when absent
}

func (c *concRT) update() {
	s := c.s
	defer s.Recover()
	for i := range c.waves {
		w := &c.waves[i]
		if w.cond != nil && !s.Truth(w.cond) {
			continue
		}
		if !c.port {
			s.assignSignal(&c.target, w.value, w.after)
			return
		}
		t := &c.target
		if s.resolveSig(t); !t.ok {
			return
		}
		if v := s.Eval(w.value, 0); t.lo == 0 && t.width == t.sig.Width {
			s.applyUpdate(t.sig, v)
		} else {
			s.applyUpdate(t.sig, t.sig.Val.SetSlice(t.lo, v.Resize(t.width)))
		}
		return
	}
}

// bindPort lowers one port association.
func (s *Simulator) bindPort(pb *portBind) {
	clear(s.scope)
	port := pb.childScope.Signals[pb.portName]
	c := s.concs.Alloc()
	c.s, c.port, c.waves = s, true, s.waves.Alloc(1)
	if pb.dir == vhdl.DirIn {
		c.target.sig, c.waves[0].value = port, s.lower(pb.parentScope, pb.actual)
	} else {
		load := s.NewExpr(sim.XLoad)
		load.Ref, load.Watch = &port.Val, &port.watch
		c.target, c.waves[0].value = s.lowerTarget(pb.parentScope, pb.actual, false), load
	}
	c.watch()
}

// bindConcAssign lowers a concurrent assignment.
func (s *Simulator) bindConcAssign(bc *boundConc) {
	clear(s.scope)
	inst, ca := bc.scope, bc.ca
	c := s.concs.Alloc()
	c.s, c.target, c.waves = s, s.lowerTarget(inst, ca.Target, false), s.waves.Alloc(len(ca.Waves))
	for i, w := range ca.Waves {
		lw := &c.waves[i]
		lw.value = s.lower(inst, w.Value)
		if w.Cond != nil {
			lw.cond = s.lower(inst, w.Cond)
		}
		if w.AfterNs != nil {
			lw.after = s.lower(inst, w.AfterNs)
		}
	}
	c.watch()
}

// watch schedules c's update on every change of a signal its values and
// conditions read, and once at time zero.
func (c *concRT) watch() {
	s := c.s
	reads := s.Exprs(2 * len(c.waves))
	for i, w := range c.waves {
		reads[2*i], reads[2*i+1] = w.value, w.cond
	}
	update := c.update
	fire := func() { s.Kernel.Active(update) }
	for _, l := range s.Reads(reads...) {
		l.Watch(fire)
	}
	s.Kernel.Active(update)
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
