package sim

// BackendStats is a zero-valued compatibility shim: both front-ends
// run every process on the 4-state interpreter, so nothing in the
// module writes these counts and every value stays zero. It exists
// only because the perfbench module still compiles against it
// (core.Result.Backend, the five counts and Add) to report
// sim.compiled_frac and sim.xz_fallbacks, and goes with them in a
// benchmark-only change that drops those two metrics.
type BackendStats struct {
	CompiledProcs      int
	InterpretedProcs   int
	CompiledAssigns    int
	InterpretedAssigns int
	Fallbacks          uint64
}

// Add accumulates o into s.
func (s *BackendStats) Add(o BackendStats) {
	s.CompiledProcs += o.CompiledProcs
	s.InterpretedProcs += o.InterpretedProcs
	s.CompiledAssigns += o.CompiledAssigns
	s.InterpretedAssigns += o.InterpretedAssigns
	s.Fallbacks += o.Fallbacks
}
