package vsim

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/verilog"
)

// workspace is the storage one simulation elaborates into and runs on:
// the Design (signal, instance and port-reference arenas, the binding
// slices and the instance maps), the Simulator (runtime, kernel and
// target scratch) and the stimulus shell. Simulate and
// SimulateStimulus take one from workspaces and give it back reset, so
// a run reuses what earlier runs allocated and allocates only past
// their high-water mark. A reset workspace keeps no pointer into an
// AST, a kernel closure or a Result, so a pooled one keeps no parse
// alive.
type workspace struct {
	d  Design
	s  Simulator
	sh stimShell
}

// workspaces is the only place a workspace is made.
var workspaces = sync.Pool{New: func() any {
	w := &workspace{}
	w.s.Runtime = sim.NewRuntime(Options{}, "tb.v", "statement budget exceeded (possible infinite loop in RTL)")
	w.s.nbaVec = w.s.applyVecNBA
	w.s.nbaMem = w.s.applyMemNBA
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

// simulate elaborates top from modules into w and runs it.
func (w *workspace) simulate(modules map[string]*verilog.Module, top string, opts Options) (*Result, error) {
	if err := w.d.elaborate(modules, top); err != nil {
		return nil, err
	}
	return w.s.run(&w.d, opts, nil), nil
}

// reset clears what the last run left in s, keeping the runtime's
// storage and the pre-bound apply hooks.
func (s *Simulator) reset() {
	s.Runtime.Reset()
	s.vcd = vcdDump{}
	s.finished, s.stopped, s.dumpReq = false, false, false
	s.procs.Reset()
	s.prog.Reset()
	s.lvals.Reset()
	s.inst = nil
	clear(s.star[:cap(s.star)])
	s.star = s.star[:0]
	clear(s.lhs[:cap(s.lhs)])
	s.lhs = s.lhs[:0]
}
