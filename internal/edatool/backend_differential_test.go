package edatool

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
)

// Differential harness for the execution backend: VHDL's compiled
// two-state fast path must produce output byte-identical to the 4-state
// interpreter over real bench problems. Everything SimResult reports is
// compared, including the judged verdict and the latency model. Verilog
// has one executor, the interpreter, and ignores Options.Mode; its
// subtests pin that both modes run it and report it as "interpret".

// TestBackendDifferentialByteIdentical runs sampled bench problems
// (golden RTL under the reference testbench) under both backend modes
// and requires output identical to a cold interpreted run. The wN
// subtests run the two modes on N concurrent workers sharing one
// toolchain cache, as sweep workers do, so memoized results are shared
// across goroutines (CI runs this under -race) while each mode keeps
// its own. It also pins that interpret
// mode never binds a compiled program, and that a Verilog run reports
// the interpreter under either mode.
func TestBackendDifferentialByteIdentical(t *testing.T) {
	for _, p := range sampleProblems(11) {
		for _, lang := range []Language{Verilog, VHDL} {
			srcs := problemSources(p, lang)
			ref := New(Options{Mode: sim.BackendInterpret}).Simulate(lang, bench.TBName, diffMaxTime, srcs...)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", p.ID, lang, workers), func(t *testing.T) {
					cache := NewDesignCache()
					auto := New(Options{Cache: cache})
					interp := New(Options{Mode: sim.BackendInterpret, Cache: cache})
					runs := concurrently(workers, func(int) [2]*SimResult {
						return [2]*SimResult{
							auto.Simulate(lang, bench.TBName, diffMaxTime, srcs...),
							interp.Simulate(lang, bench.TBName, diffMaxTime, srcs...),
						}
					})
					for _, r := range runs {
						compareSimResults(t, "auto vs interpret", ref, r[0])
						compareSimResults(t, "warm interpret vs cold", ref, r[1])
						if r[1].Backend.CompiledProcs != 0 || r[1].Backend.CompiledAssigns != 0 {
							t.Errorf("interpret mode bound compiled programs: %+v", r[1].Backend)
						}
						if lang == Verilog && r[0].Backend.Mode != "interpret" {
							t.Errorf("Verilog auto run reports backend %+v, want interpret", r[0].Backend)
						}
					}
				})
			}
		}
	}
}

// TestBackendModeKeysResults pins that backend mode keys the result
// memo: a run under auto followed by the same sources under interpret
// through one cache is two misses, so the interpret run really executes
// the interpreter — it matches a cold interpreted run byte for byte and
// binds no compiled program.
func TestBackendModeKeysResults(t *testing.T) {
	for _, p := range sampleProblems(29) {
		for _, lang := range []Language{Verilog, VHDL} {
			t.Run(fmt.Sprintf("%s/%s", p.ID, lang), func(t *testing.T) {
				srcs := problemSources(p, lang)
				cache := NewDesignCache()
				coldInterp := New(Options{Mode: sim.BackendInterpret}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				New(Options{Cache: cache}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				warm := New(Options{Mode: sim.BackendInterpret, Cache: cache}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				compareSimResults(t, "mode switch through one cache", coldInterp, warm)
				if st := cache.Stats(); st.DesignHits != 0 || st.DesignMisses != 2 {
					t.Errorf("mode switch stats = %+v, want 0 hits / 2 misses", st)
				}
				if warm.Backend != coldInterp.Backend || warm.Backend.CompiledProcs != 0 {
					t.Errorf("interpret run backend %+v, cold interpret %+v", warm.Backend, coldInterp.Backend)
				}
			})
		}
	}
}
