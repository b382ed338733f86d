package vhdlsim

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/lex"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

// SimulateStimulus elaborates the judge shell entity top from the
// units — a reference testbench without its stim process: signal
// declarations, the DUT instantiation and, for a sequential design,
// the clock — and runs it with stim driven natively where that process
// would run (see sim.Stimulus). The shell's signals are assigned with
// delta-delayed <= semantics and its outputs compared as /= would; the
// run ends with done <= '1', which stops the shell's clock.
func SimulateStimulus(units []*vhdl.DesignFile, top string, stim *sim.Stimulus, opts Options) (*Result, error) {
	w := workspaces.Get().(*workspace)
	res, err := w.simulateStimulus(units, top, stim, opts)
	w.release()
	return res, err
}

// simulateStimulus elaborates the judge shell top from units into w and
// runs it with stim.
func (w *workspace) simulateStimulus(units []*vhdl.DesignFile, top string, stim *sim.Stimulus, opts Options) (*Result, error) {
	d, sh := &w.d, &w.sh
	if err := d.elaborate(units, top); err != nil {
		return nil, err
	}
	lookup := func(name string) (*Signal, error) {
		sig, ok := d.Top.Signals[name]
		if !ok {
			return nil, fmt.Errorf("testbench %q has no signal %q", top, name)
		}
		return sig, nil
	}
	sh.stim = stim
	var err error
	if sh.in, sh.out, err = sim.Signals(stim, sh.in, sh.out, lookup); err != nil {
		return nil, err
	}
	if sh.done, err = lookup("done"); err != nil {
		return nil, err
	}
	if stim.Seq {
		if sh.clk, err = lookup("clk"); err != nil {
			return nil, err
		}
	}
	return w.s.run(d, opts, sh), nil
}

// stimShell is the VHDL side of a stimulus run (sim.Shell). Its
// statement charges mirror the interpreter's for the textual stim
// process bench renders.
type stimShell struct {
	s         *Simulator
	stim      *sim.Stimulus
	in, out   []*Signal
	clk, done *Signal
	clkWait   *sim.WaitReg // wait until rising_edge(clk), built on first use
}

// reset empties sh for the next run, keeping its signal slices.
func (sh *stimShell) reset() {
	clear(sh.in)
	clear(sh.out)
	*sh = stimShell{in: sh.in[:0], out: sh.out[:0]}
}

// Begin is empty: the stim process has no preamble statements (its
// errors variable is a declaration).
func (sh *stimShell) Begin() {}

func (sh *stimShell) Drive(i int, v uint64) {
	sig := sh.in[i]
	sh.s.scheduleUpdate(sig, hdl.FromUint(v, sig.Width), 0)
}

func (sh *stimShell) Holds(i int, v uint64) bool {
	sig := sh.out[i]
	return sig.Val.Equal(hdl.FromUint(v, sig.Width))
}

// Mismatch runs `errors := errors + 1; report ... severity error;`,
// which counts as a failed assertion.
func (sh *stimShell) Mismatch() {
	sh.s.Tick()
	sh.s.Tick()
	sh.s.assertErrors++
}

// AwaitClock runs `wait until rising_edge(clk);` up to its first
// suspension: the statement, then the condition's level-sensitive wait
// on clk.
func (sh *stimShell) AwaitClock(resume func()) {
	s := sh.s
	if sh.clkWait == nil {
		sh.clkWait = s.buildWaitReg([]*Signal{sh.clk}, resume)
	}
	s.Tick()
	s.Tick()
	sh.clkWait.Rearm()
}

// Rose re-evaluates rising_edge(clk) after a clk event and re-arms the
// wait when it is false.
func (sh *stimShell) Rose() bool {
	clk, s := sh.clk, sh.s
	if clk.eventFlagNow(s) && clk.Val.Bit(0) == hdl.L1 && clk.Prev.Bit(0) == hdl.L0 {
		return true
	}
	s.Tick()
	sh.clkWait.Rearm()
	return false
}

// End runs `if errors = 0 then report pass; end if; done <= '1';
// wait;`.
func (sh *stimShell) End(failures int) {
	s := sh.s
	s.Tick()
	if failures == 0 {
		s.Tick()
		s.reportSeverity("note", sim.PassMarker, lex.Pos{})
	}
	s.Tick()
	s.scheduleUpdate(sh.done, hdl.FromUint(1, sh.done.Width), 0)
	s.Tick()
}
