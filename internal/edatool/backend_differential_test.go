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
// subtests pin that both modes run it, report it as "interpret", and
// share one retained design.

// TestBackendDifferentialByteIdentical runs sampled bench problems
// (golden RTL under the reference testbench) under both backend modes
// and requires output identical to a cold interpreted run. The wN
// subtests run the two modes on N concurrent workers sharing one
// toolchain cache, as sweep workers do, so retained designs and the
// compiled programs cached on them are reused across modes and
// goroutines (CI runs this under -race). It also pins that interpret
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

// TestBackendCacheKeyNeutral pins the API contract that backend mode
// never enters the design cache key: a design elaborated and retained
// under one mode is a whole-design cache hit under the other, and the
// re-run under the new mode still matches a cold run of that mode
// byte for byte.
func TestBackendCacheKeyNeutral(t *testing.T) {
	for _, p := range sampleProblems(29) {
		for _, lang := range []Language{Verilog, VHDL} {
			t.Run(fmt.Sprintf("%s/%s", p.ID, lang), func(t *testing.T) {
				srcs := problemSources(p, lang)
				cache := NewDesignCache()
				coldInterp := New(Options{Mode: sim.BackendInterpret}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				// Elaborate + retain under auto mode...
				New(Options{Cache: cache}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				// ...then re-run the retained design under interpret mode.
				warm := New(Options{Mode: sim.BackendInterpret, Cache: cache}).
					Simulate(lang, bench.TBName, diffMaxTime, srcs...)
				compareSimResults(t, "mode switch on retained design", coldInterp, warm)
				st := cache.Stats()
				if st.DesignHits != 1 {
					t.Errorf("mode switch missed the design cache: %+v", st)
				}
				if warm.Backend.CompiledProcs != 0 {
					t.Errorf("interpret re-run executed compiled programs: %+v", warm.Backend)
				}
			})
		}
	}
}
