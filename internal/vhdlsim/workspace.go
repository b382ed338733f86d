package vhdlsim

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/vhdl"
)

// workspace is the storage one simulation elaborates into and runs on:
// the Design (signal and instance arenas, the binding slices, and the
// entity, architecture and instance maps), the Simulator (runtime and
// kernel) and the stimulus shell. Simulate and SimulateStimulus take
// one from workspaces and give it back reset, so a run reuses what
// earlier runs allocated and allocates only past their high-water
// mark. A reset workspace keeps no pointer into an AST, a kernel
// closure or a Result, so a pooled one keeps no parse alive.
type workspace struct {
	d  Design
	s  Simulator
	sh stimShell
}

// workspaces is the only place a workspace is made.
var workspaces = sync.Pool{New: func() any {
	w := &workspace{}
	w.s.Runtime = sim.NewRuntime(Options{}, "tb.vhd", "statement budget exceeded (possible infinite loop)")
	w.s.updFull = w.s.applyFullUpdate
	w.s.updPart = w.s.applyPartUpdate
	return w
}}

// release resets w and returns it to workspaces. A run that panics
// never gets here, so a workspace left mid-run is dropped, not reused.
func (w *workspace) release() {
	w.reset()
	workspaces.Put(w)
}

// reset clears what the last run left in w, keeping its storage.
func (w *workspace) reset() {
	w.d.reset()
	w.s.reset()
	w.sh.reset()
}

// simulate elaborates top from units into w and runs it.
func (w *workspace) simulate(units []*vhdl.DesignFile, top string, opts Options) (*Result, error) {
	if err := w.d.elaborate(units, top); err != nil {
		return nil, err
	}
	return w.s.run(&w.d, opts, nil), nil
}

// reset clears what the last run left in s, keeping the runtime's
// storage and the pre-bound apply hooks.
func (s *Simulator) reset() {
	s.Runtime.Reset()
	s.assertErrors, s.failed = 0, false
	s.procs.Reset()
	s.prog.Reset()
}
