package sim

import (
	"crypto/sha256"
	"encoding/binary"
)

// PassMarker is the line a testbench prints when every check passed;
// the whole framework keys on it.
const PassMarker = "All tests passed successfully!"

// Stimulus is a reference testbench's stimulus as data: per vector, the
// values driven on the inputs and the values the outputs must hold once
// the vector has settled. A front-end runs it natively (StartStimulus)
// against a judge shell — the testbench's declarations, its DUT
// instantiation and, for sequential designs, its textual clock — in
// place of the textual per-vector statement block, on the same
// timeline: per vector, drive every input, wait one time unit (for
// sequential designs: a rising clk edge, then one time unit), and
// compare every output case-equal.
type Stimulus struct {
	Inputs  []string // driven shell signals, in drive order
	Outputs []string // checked shell signals, in check order
	Seq     bool     // sequential: each vector is one rising clk edge
	Vectors int
	In      []uint64 // len(Inputs) values per vector, vector-major
	Out     []uint64 // len(Outputs) values per vector, vector-major

	// Digest identifies all of the above, so a memo keys a judgement
	// on 32 bytes instead of the stimulus itself.
	Digest [sha256.Size]byte
}

// NewStimulus returns the stimulus of vectors vectors over the given
// ports, with its digest.
func NewStimulus(inputs, outputs []string, seq bool, vectors int, in, out []uint64) *Stimulus {
	st := &Stimulus{Inputs: inputs, Outputs: outputs, Seq: seq, Vectors: vectors, In: in, Out: out}
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	names := func(ns []string) {
		u(uint64(len(ns)))
		for _, n := range ns {
			u(uint64(len(n)))
			buf = append(buf, n...)
		}
	}
	names(inputs)
	names(outputs)
	if seq {
		u(1)
	} else {
		u(0)
	}
	u(uint64(vectors))
	for _, v := range in {
		u(v)
	}
	for _, v := range out {
		u(v)
	}
	st.Digest = sha256.Sum256(buf)
	return st
}

// Signals resolves the stimulus's input and output signals, in drive
// and check order, through a front-end's lookup, into in and out
// reused from their start.
func Signals[S any](st *Stimulus, in, out []S, lookup func(name string) (S, error)) ([]S, []S, error) {
	resolve := func(sigs []S, names []string) ([]S, error) {
		sigs = sigs[:0]
		for _, n := range names {
			sig, err := lookup(n)
			if err != nil {
				return nil, err
			}
			sigs = append(sigs, sig)
		}
		return sigs, nil
	}
	var err error
	if in, err = resolve(in, st.Inputs); err != nil {
		return nil, nil, err
	}
	if out, err = resolve(out, st.Outputs); err != nil {
		return nil, nil, err
	}
	return in, out, nil
}

// Shell is one front-end's side of a stimulus run: the judge shell's
// signals on the running design, written and read with that HDL's
// semantics, and the parts of the textual stimulus block whose
// statements differ per HDL. Every method charges the statement budget
// (Tick) what the interpreter charges the textual statements it stands
// for, so a design near the budget faults under either testbench alike.
type Shell interface {
	// Begin runs the block's preamble (Verilog: errors = 0, and for a
	// sequential design clk and every input to 0).
	Begin()
	// Drive assigns input i the value v: a Verilog blocking write, a
	// VHDL delta-delayed signal assignment. The harness charges it.
	Drive(i int, v uint64)
	// Holds reports whether output i is case-equal to v: any X, Z or U
	// bit is a mismatch, as under Verilog !== and VHDL /=. The harness
	// charges it.
	Holds(i int, v uint64) bool
	// Mismatch runs the failure branch of one output check.
	Mismatch()
	// AwaitClock suspends on clk and arranges for resume to run on the
	// next clk event the HDL's wait observes (Verilog: rising edges).
	AwaitClock(resume func())
	// Rose reports, after a clock wakeup, whether clk rose. When it did
	// not, the shell has re-armed the wait.
	Rose() bool
	// End closes the block after failures failed checks: the pass
	// marker when there were none, then $finish or done <= '1'.
	End(failures int)
}

// Harness phases: the continuation is (vector index, phase).
const (
	phaseBegin = iota // first activation: preamble, then drive vector 0
	phaseClock        // woken by a clk event, waiting for the rising edge
	phaseCheck        // one time unit after the drive or edge: compare
)

// stimulusRun is the harness process's state.
type stimulusRun struct {
	rt       *Runtime
	st       *Stimulus
	sh       Shell
	p        *Process
	resume   func() // p.Activate, bound once: the clock waits of every vector share it
	vec      int
	phase    uint8
	failures int
}

// StartStimulus registers the harness process that drives st through
// sh. A front-end calls it after binding the design's own processes,
// where the textual stimulus block's process would be bound, so the
// time-zero activation order is unchanged.
func (r *Runtime) StartStimulus(st *Stimulus, sh Shell) {
	h := &stimulusRun{rt: r, st: st, sh: sh}
	h.p = r.Kernel.NewProcess("stimulus", h.step)
	h.resume = h.p.Activate
}

// step is the harness continuation the kernel dispatches.
func (h *stimulusRun) step(p *Process) {
	defer h.rt.ProcRecover()
	switch h.phase {
	case phaseBegin:
		h.sh.Begin()
	case phaseClock:
		if !h.sh.Rose() {
			return
		}
		h.settle()
		return
	case phaseCheck:
		h.check()
		h.vec++
	}
	if h.vec == h.st.Vectors {
		h.sh.End(h.failures)
		p.Terminate()
		return
	}
	h.drive()
}

// drive applies the current vector's inputs, then waits for the clock
// (sequential) or settles.
func (h *stimulusRun) drive() {
	n := len(h.st.Inputs)
	for i, v := range h.st.In[h.vec*n : (h.vec+1)*n] {
		h.rt.Tick()
		h.sh.Drive(i, v)
	}
	if h.st.Seq {
		h.phase = phaseClock
		h.sh.AwaitClock(h.resume)
		return
	}
	h.settle()
}

// settle waits the one time unit (#1 / wait for 1 ns) before the
// outputs are compared.
func (h *stimulusRun) settle() {
	h.rt.Tick()
	h.phase = phaseCheck
	h.p.Delay(1)
}

// check compares the current vector's outputs.
func (h *stimulusRun) check() {
	n := len(h.st.Outputs)
	for i, v := range h.st.Out[h.vec*n : (h.vec+1)*n] {
		h.rt.Tick()
		if !h.sh.Holds(i, v) {
			h.failures++
			h.sh.Mismatch()
		}
	}
}
