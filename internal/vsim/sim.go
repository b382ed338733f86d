package vsim

import (
	"fmt"
	"strings"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// Options configures one simulation run.
type Options = sim.Options

// Result is the outcome of a simulation run.
type Result struct {
	sim.Outcome
	Finished bool   // $finish executed
	Stopped  bool   // $stop executed
	VCD      string // waveform dump when the bench ran $dumpvars
}

// Simulator runs one elaborated design on its own event kernel, inside
// the shared run shell. Exactly one activity executes at a time, so
// the per-run state below needs no locks.
type Simulator struct {
	sim.Runtime

	vcd vcdDump
	rng uint64 // $random stream, from a fixed seed

	finished bool
	stopped  bool
	dumpReq  bool // $dumpvars executed; honoured at the delta boundary

	// targetScratch holds the targets of a dynamic assignment target
	// (see targets), consumed at once: applied, or copied into pooled
	// kernel records by NBA scheduling.
	targetScratch []target

	// nbaVec/nbaMem are the pre-bound NBA record apply hooks (method
	// values created once here; creating one per scheduled update would
	// allocate).
	nbaVec func(*sim.NBARecord)
	nbaMem func(*sim.NBARecord)

	// procs and prog hold the run's always and initial blocks: each
	// one's process machine and the statement program it runs.
	procs sim.Arena[proc]
	prog  sim.Builder[opSlot]
}

// Simulate elaborates top from modules and runs it to completion, on
// a recycled workspace (see workspace).
func Simulate(modules map[string]*verilog.Module, top string, opts Options) (*Result, error) {
	w := workspaces.Get().(*workspace)
	res, err := w.simulate(modules, top, opts)
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
	for i := range d.contAssigns {
		s.bindContAssign(&d.contAssigns[i])
	}
	for _, bp := range d.procs {
		switch {
		case bp.always != nil:
			s.bindProcess(bp.scope, bp.scope.Path+".always", bp.always.Body, bp.always.Sens, true)
		case bp.initial != nil:
			s.bindProcess(bp.scope, bp.scope.Path+".initial", bp.initial.Body, nil, false)
		}
	}
	if sh != nil {
		sh.s = s
		s.StartStimulus(sh.stim, sh)
	}

	k := s.Kernel
	k.AfterDelta = func() {
		// $dumpvars takes effect at the delta boundary, where the whole
		// design can be sampled for the initial dump.
		if s.dumpReq && !s.vcd.enabled {
			s.vcd.enable(d, k.Now())
		}
	}
	res := &Result{Outcome: s.Execute(), Finished: s.finished, Stopped: s.stopped}
	if s.vcd.enabled {
		res.VCD = s.vcd.render()
	}
	if opts.CaptureFinal {
		res.Final = map[string]string{}
		d.arena.Each(func(sg *Signal) {
			if !sg.IsMem {
				res.Final[sg.Name] = sg.Val.BinString()
			}
		})
	}
	return res
}

// contAssignRT is the runtime state of one continuous assignment.
type contAssignRT struct {
	s       *Simulator
	a       *boundAssign
	pending bool
	run     func() // pre-built event closure: scheduling must not allocate
	lhs     lhsBinding
}

func (c *contAssignRT) schedule() {
	if c.pending {
		return
	}
	c.pending = true
	c.s.Kernel.Active(c.run)
}

func (c *contAssignRT) update() {
	defer c.s.Recover()
	ts, total := c.s.targets(&c.lhs, c.a.lhsScope, c.a.lhs)
	val := c.s.evalCtx(c.a.rhsScope, c.a.rhs, total)
	c.s.applyTargets(ts, total, val)
}

func (s *Simulator) bindContAssign(a *boundAssign) {
	rt := &contAssignRT{s: s, a: a}
	rt.run = func() {
		rt.pending = false
		rt.update()
	}
	// Persistent watchers on every RHS signal.
	func() {
		defer s.Recover()
		for _, sig := range collectSignals(a.rhsScope, a.rhs) {
			sig.watch.Watch(rt.schedule)
		}
	}()
	// Initial evaluation at time zero.
	rt.schedule()
}

// ---------------------------------------------------------------- tasks

func (s *Simulator) execSysCall(inst *Instance, x *verilog.SysCall) {
	switch x.Name {
	case "$display", "$write", "$strobe", "$error", "$info", "$warning":
		text := s.formatArgs(inst, x.Args)
		if x.Name == "$error" {
			text = "ERROR: " + text
		}
		s.Logf("%s", text)
		if x.Name != "$write" {
			s.Logf("\n")
		}
	case "$monitor":
		s.installMonitor(inst, x.Args)
	case "$finish":
		s.finished = true
		s.Logf("%s:%d: $finish called at %d (1ns)\n", s.File, x.Pos.Line, s.Kernel.Now())
		s.Kernel.Finish()
		panic(sim.TerminateProcess{})
	case "$stop":
		s.stopped = true
		s.Logf("%s:%d: $stop called at %d (1ns)\n", s.File, x.Pos.Line, s.Kernel.Now())
		s.Kernel.Finish()
		panic(sim.TerminateProcess{})
	case "$fatal":
		s.Logf("FATAL: %s\n", s.formatArgs(inst, x.Args))
		s.finished = true
		s.Kernel.Finish()
		panic(sim.TerminateProcess{})
	case "$dumpvars":
		s.dumpReq = true
	case "$dumpfile", "$timeformat", "$dumpon", "$dumpoff":
		// Accepted and ignored: the dump is returned in Result.VCD.
	case "$readmemh", "$readmemb":
		panic(sim.Faultf("%s is not supported by this simulator", x.Name))
	default:
		panic(sim.Faultf("unsupported system task %s", x.Name))
	}
}

// installMonitor implements $monitor: print now, then re-print whenever
// any referenced signal changes (at most one line per delta batch).
func (s *Simulator) installMonitor(inst *Instance, args []verilog.Expr) {
	print := func() {
		defer s.Recover()
		s.Logf("%s\n", s.formatArgs(inst, args))
	}
	pending := false
	run := func() {
		pending = false
		print()
	}
	firePrint := func() {
		if pending {
			return
		}
		pending = true
		s.Kernel.Active(run)
	}
	func() {
		defer s.Recover()
		for _, a := range args {
			for _, sig := range collectSignals(inst, a) {
				sig.watch.Watch(firePrint)
			}
		}
	}()
	print()
}

// formatArgs renders $display-style arguments: a leading string literal
// containing % directives is treated as a format string.
func (s *Simulator) formatArgs(inst *Instance, args []verilog.Expr) string {
	if len(args) == 0 {
		return ""
	}
	if lit, ok := args[0].(*verilog.StringLit); ok && strings.Contains(lit.Value, "%") {
		return s.formatString(inst, lit.Value, args[1:])
	}
	var sb strings.Builder
	for i, a := range args {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if lit, ok := a.(*verilog.StringLit); ok {
			sb.WriteString(lit.Value)
		} else {
			sb.WriteString(s.eval(inst, a).DecString())
		}
	}
	return sb.String()
}

func (s *Simulator) formatString(inst *Instance, format string, args []verilog.Expr) string {
	var sb strings.Builder
	argi := 0
	nextArg := func() (hdl.Vector, bool) {
		if argi >= len(args) {
			return hdl.Vector{}, false
		}
		v := s.eval(inst, args[argi])
		argi++
		return v, true
	}
	i := 0
	for i < len(format) {
		ch := format[i]
		if ch != '%' {
			sb.WriteByte(ch)
			i++
			continue
		}
		i++
		// Skip width/zero flags: %0d, %2d ...
		for i < len(format) && (format[i] >= '0' && format[i] <= '9') {
			i++
		}
		if i >= len(format) {
			sb.WriteByte('%')
			break
		}
		verb := format[i]
		i++
		switch verb {
		case '%':
			sb.WriteByte('%')
		case 'd', 'D':
			if v, ok := nextArg(); ok {
				sb.WriteString(v.DecString())
			}
		case 'b', 'B':
			if v, ok := nextArg(); ok {
				sb.WriteString(v.BinString())
			}
		case 'h', 'H', 'x', 'X':
			if v, ok := nextArg(); ok {
				sb.WriteString(v.HexString())
			}
		case 'o', 'O':
			if v, ok := nextArg(); ok {
				if u, known := v.Uint(); known {
					sb.WriteString(fmt.Sprintf("%o", u))
				} else {
					sb.WriteString("x")
				}
			}
		case 'c':
			if v, ok := nextArg(); ok {
				if u, known := v.Uint(); known {
					sb.WriteByte(byte(u))
				}
			}
		case 's':
			if argi < len(args) {
				if lit, isStr := args[argi].(*verilog.StringLit); isStr {
					sb.WriteString(lit.Value)
					argi++
					break
				}
			}
			if v, ok := nextArg(); ok {
				// Packed ASCII back to string.
				n := v.Width() / 8
				bs := make([]byte, 0, n)
				for j := n - 1; j >= 0; j-- {
					u, _ := v.Slice(j*8, 8).Uint()
					if u != 0 {
						bs = append(bs, byte(u))
					}
				}
				sb.Write(bs)
			}
		case 't', 'T':
			if v, ok := nextArg(); ok {
				sb.WriteString(v.DecString())
			}
		case 'm':
			sb.WriteString(inst.Path)
		default:
			sb.WriteByte('%')
			sb.WriteByte(verb)
		}
	}
	return sb.String()
}
