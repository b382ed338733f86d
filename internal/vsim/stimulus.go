package vsim

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// SimulateStimulus elaborates the judge shell top from modules — a
// reference testbench without its initial block: declarations, the DUT
// instantiation and, for a sequential design, the clock — and runs it
// with stim driven natively where that initial block would run (see
// sim.Stimulus). The shell's signals are written with blocking-assign
// semantics and its outputs compared as !== would.
func SimulateStimulus(modules map[string]*verilog.Module, top string, stim *sim.Stimulus, opts Options) (*Result, error) {
	w := workspaces.Get().(*workspace)
	res, err := w.simulateStimulus(modules, top, stim, opts)
	w.release()
	return res, err
}

// simulateStimulus elaborates the judge shell top from modules into w and
// runs it with stim.
func (w *workspace) simulateStimulus(modules map[string]*verilog.Module, top string, stim *sim.Stimulus, opts Options) (*Result, error) {
	d, sh := &w.d, &w.sh
	if err := d.elaborate(modules, top); err != nil {
		return nil, err
	}
	lookup := func(name string) (*Signal, error) {
		sig, ok := d.Top.Signals[name]
		if !ok || sig.IsMem {
			return nil, fmt.Errorf("testbench %q has no signal %q", top, name)
		}
		return sig, nil
	}
	sh.stim = stim
	var err error
	if sh.in, sh.out, err = sim.Signals(stim, sh.in, sh.out, lookup); err != nil {
		return nil, err
	}
	if stim.Seq {
		if sh.clk, err = lookup("clk"); err != nil {
			return nil, err
		}
	}
	return w.s.run(d, opts, sh), nil
}

// stimShell is the Verilog side of a stimulus run (sim.Shell). Its
// statement charges mirror the interpreter's for the textual initial
// block bench renders.
type stimShell struct {
	s       *Simulator
	stim    *sim.Stimulus
	in, out []*Signal
	clk     *Signal
	clkWait sim.WaitReg // @(posedge clk), built on first use
}

// reset empties sh for the next run, keeping its signal slices.
func (sh *stimShell) reset() {
	clear(sh.in)
	clear(sh.out)
	*sh = stimShell{in: sh.in[:0], out: sh.out[:0]}
}

// Begin runs `errors = 0;` inside the block and, for a sequential
// design, `clk = 0;` and every input `= 0;`.
func (sh *stimShell) Begin() {
	s := sh.s
	s.Tick()
	s.Tick()
	if !sh.stim.Seq {
		return
	}
	s.Tick()
	s.setSignal(sh.clk, hdl.FromUint(0, sh.clk.Width))
	for i := range sh.in {
		s.Tick()
		sh.Drive(i, 0)
	}
}

func (sh *stimShell) Drive(i int, v uint64) {
	sig := sh.in[i]
	sh.s.setSignal(sig, hdl.FromUint(v, sig.Width))
}

func (sh *stimShell) Holds(i int, v uint64) bool {
	sig := sh.out[i]
	return sig.Val.Equal(hdl.FromUint(v, sig.Width))
}

// Mismatch charges `begin errors = errors + 1; $display(...); end`.
func (sh *stimShell) Mismatch() {
	sh.s.Tick()
	sh.s.Tick()
	sh.s.Tick()
}

// AwaitClock runs `@(posedge clk);` with the registration an event
// control on clk builds.
func (sh *stimShell) AwaitClock(p *sim.Process) {
	if sh.clkWait.Empty() {
		sh.clkWait.Init(p, sh)
		sh.clkWait.Watch(&sh.clk.watch, sim.Rising, 0)
	}
	sh.s.Tick()
	sh.clkWait.Rearm()
}

// Sample samples clk for the rising-edge watcher of AwaitClock.
func (sh *stimShell) Sample(int) hdl.Logic { return sh.clk.Val.Bit(0) }

// Rose is always true: the edge-triggered wait wakes on rising edges
// only.
func (sh *stimShell) Rose() bool { return true }

// End runs the closing `if (errors == 0) $display(pass) else
// $display(count)` and `$finish`.
func (sh *stimShell) End(failures int) {
	s := sh.s
	s.Tick()
	s.Tick()
	if failures == 0 {
		s.Logf("%s\n", sim.PassMarker)
	} else {
		s.Logf("%d test case(s) failed.\n", failures)
	}
	s.Tick()
	s.finished = true
	s.Logf("%s: $finish called at %d (1ns)\n", s.File, s.Kernel.Now())
	s.Kernel.Finish()
}
