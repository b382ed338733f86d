package edatool

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/vsim"
)

// Differential harness for the design cache: every cached path — warm
// simulation-result reuse, incremental re-elaboration under a changed
// unit, and concurrent shared-cache use — must produce
// output byte-identical to a cold simulation of the same sources. The
// comparisons cover everything Simulate reports: log, VCD, the
// judged verdict, and the latency model.

const diffMaxTime = 200_000 // matches core.DefaultConfig

// sampleProblems subsamples the bench suite so the differential sweep
// stays fast while still crossing every category.
func sampleProblems(every int) []*bench.Problem {
	var out []*bench.Problem
	for i, p := range bench.NewSuite().Problems {
		if i%every == 0 {
			out = append(out, p)
		}
	}
	return out
}

// problemSources builds the (DUT, TB) source set the suite-side judge
// simulates: golden RTL under the reference testbench.
func problemSources(p *bench.Problem, lang Language) []Source {
	if lang == Verilog {
		return []Source{
			{Name: "dut.v", Text: p.GoldenVerilog},
			{Name: "tb.v", Text: p.RefTBVerilog},
		}
	}
	return []Source{
		{Name: "dut.vhd", Text: p.GoldenVHDL},
		{Name: "tb.vhd", Text: p.RefTBVHDL},
	}
}

func compareSimResults(t *testing.T, label string, cold, warm *SimResult) {
	t.Helper()
	if warm.Log != cold.Log {
		t.Errorf("%s: log differs\ncold:\n%s\nwarm:\n%s", label, cold.Log, warm.Log)
	}
	if warm.VCD != cold.VCD {
		t.Errorf("%s: VCD differs", label)
	}
	if warm.Passed != cold.Passed || warm.Failed != cold.Failed ||
		warm.TimedOut != cold.TimedOut || warm.Fault != cold.Fault {
		t.Errorf("%s: verdict differs: warm {p=%v f=%v to=%v fault=%q}, cold {p=%v f=%v to=%v fault=%q}",
			label, warm.Passed, warm.Failed, warm.TimedOut, warm.Fault,
			cold.Passed, cold.Failed, cold.TimedOut, cold.Fault)
	}
	if warm.LatencyModel != cold.LatencyModel {
		t.Errorf("%s: latency model %v != %v", label, warm.LatencyModel, cold.LatencyModel)
	}
}

// concurrently runs fn on n goroutines and returns the results in
// worker order.
func concurrently[R any](n int, fn func(worker int) R) []R {
	out := make([]R, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	return out
}

// TestWarmSimulationByteIdentical runs sampled bench problems cold,
// then three times per worker through one shared cache per (problem,
// language, workers) cell, with the wN subtests running N workers
// concurrently. A worker's first warm run simulates and memoizes the
// result unless another worker stored it first; later runs are memo
// hits. Every run must match the cold output exactly.
func TestWarmSimulationByteIdentical(t *testing.T) {
	for _, p := range sampleProblems(13) {
		for _, lang := range []Language{Verilog, VHDL} {
			srcs := problemSources(p, lang)
			cold := Simulate(nil, lang, bench.TBName, diffMaxTime, srcs...)
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", p.ID, lang, workers), func(t *testing.T) {
					cache := NewDesignCache()
					runs := concurrently(workers, func(int) []*SimResult {
						var warm []*SimResult
						for i := 0; i < 3; i++ {
							warm = append(warm, Simulate(cache, lang, bench.TBName, diffMaxTime, srcs...))
						}
						return warm
					})
					for w, warm := range runs {
						for i, r := range warm {
							compareSimResults(t, fmt.Sprintf("worker %d run %d", w, i), cold, r)
						}
					}
					// Concurrent workers may each miss before another
					// stores the result, so only the single-worker split
					// is exact.
					st := cache.Stats()
					if st.DesignHits+st.DesignMisses != 3*workers || st.DesignMisses < 1 ||
						(workers == 1 && st.DesignHits != 2) {
						t.Errorf("design cache stats = %+v, want %d lookups (2 hits / 1 miss for one worker)", st, 3*workers)
					}
				})
			}
		}
	}
}

// TestRepairLoopIncrementalByteIdentical models the functional repair
// loop: the testbench is frozen while the candidate RTL changes every
// iteration. Warm runs must reuse the testbench parse (the DUT cannot
// hit — its hash changes) and still match a cold run of the same
// sources exactly.
func TestRepairLoopIncrementalByteIdentical(t *testing.T) {
	for _, p := range sampleProblems(31) {
		for _, lang := range []Language{Verilog, VHDL} {
			t.Run(fmt.Sprintf("%s/%s", p.ID, lang), func(t *testing.T) {
				srcs := problemSources(p, lang)
				comment := "// iteration %d\n"
				if lang == VHDL {
					comment = "-- iteration %d\n"
				}
				cache := NewDesignCache()
				for i := 0; i < 3; i++ {
					iter := []Source{
						{Name: srcs[0].Name, Text: fmt.Sprintf(comment, i) + srcs[0].Text},
						srcs[1],
					}
					cold := Simulate(nil, lang, bench.TBName, diffMaxTime, iter...)
					warm := Simulate(cache, lang, bench.TBName, diffMaxTime, iter...)
					compareSimResults(t, fmt.Sprintf("iteration %d", i), cold, warm)
				}
				st := cache.Stats()
				if st.DesignHits != 0 {
					t.Errorf("unexpected whole-design hit with changing DUT: %+v", st)
				}
				// Iterations 2 and 3 must reuse the testbench parse.
				if st.ParseHits < 2 {
					t.Errorf("parse hits = %d, want >= 2 (frozen testbench not reused): %+v", st.ParseHits, st)
				}
			})
		}
	}
}

// TestBackendDifferentialByteIdentical runs N concurrent repair
// iterations (the wN subtests) over sampled bench problems through one
// shared cache: each worker simulates its own DUT variant under the
// frozen reference testbench, so every run misses the result memo and
// elaborates from a testbench AST the parse memo may share with the
// other workers (CI runs this under -race). Every result must match a
// cold run of the same variant byte for byte.
func TestBackendDifferentialByteIdentical(t *testing.T) {
	for _, p := range sampleProblems(11) {
		for _, lang := range []Language{Verilog, VHDL} {
			srcs := problemSources(p, lang)
			comment := "// worker %d\n"
			if lang == VHDL {
				comment = "-- worker %d\n"
			}
			variant := func(w int) []Source {
				return []Source{{Name: srcs[0].Name, Text: fmt.Sprintf(comment, w) + srcs[0].Text}, srcs[1]}
			}
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", p.ID, lang, workers), func(t *testing.T) {
					cache := NewDesignCache()
					runs := concurrently(workers, func(w int) *SimResult {
						return Simulate(cache, lang, bench.TBName, diffMaxTime, variant(w)...)
					})
					for w, r := range runs {
						cold := Simulate(nil, lang, bench.TBName, diffMaxTime, variant(w)...)
						compareSimResults(t, fmt.Sprintf("worker %d", w), cold, r)
					}
					if st := cache.Stats(); st.DesignHits != 0 || st.DesignMisses != workers ||
						st.ParseHits+st.ParseMisses != 2*workers {
						t.Errorf("design cache stats = %+v, want %d design misses and %d parse lookups", st, workers, 2*workers)
					}
				})
			}
		}
	}
}

// TestSharedCacheConcurrentIdentical exercises one cache from many
// goroutines, mixing languages and problems (run with -race to check
// the locking). Results must match the cold baselines regardless of
// interleaving.
func TestSharedCacheConcurrentIdentical(t *testing.T) {
	probs := sampleProblems(17)
	type cell struct {
		p    *bench.Problem
		lang Language
	}
	var cells []cell
	colds := map[string]*SimResult{}
	for _, p := range probs {
		for _, lang := range []Language{Verilog, VHDL} {
			cells = append(cells, cell{p, lang})
			colds[p.ID+lang.String()] = Simulate(nil, lang, bench.TBName, diffMaxTime, problemSources(p, lang)...)
		}
	}
	cache := NewDesignCache()
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, c := range cells {
			wg.Add(1)
			go func(c cell) {
				defer wg.Done()
				warm := Simulate(cache, c.lang, bench.TBName, diffMaxTime, problemSources(c.p, c.lang)...)
				cold := colds[c.p.ID+c.lang.String()]
				// Errorf is goroutine-safe; compare inline to keep the
				// failure attributed to its cell.
				if warm.Log != cold.Log || warm.VCD != cold.VCD || warm.Passed != cold.Passed {
					t.Errorf("%s/%s: concurrent warm run diverged from cold", c.p.ID, c.lang)
				}
			}(c)
		}
	}
	wg.Wait()
}

// TestRepairLoopElabAllocRatio pins the headline acceptance bar: a
// warm repair-loop iteration (changed DUT, frozen testbench) spends at
// least 2x fewer allocations on compile+elaborate than a cold one.
// The win comes from skipping the testbench re-parse through the parse
// memo — the reference testbenches dwarf the RTL; elaboration itself
// runs cold on both sides.
func TestRepairLoopElabAllocRatio(t *testing.T) {
	p := bench.NewSuite().ByID("counter_up_w4")
	if p == nil {
		t.Fatal("problem counter_up_w4 not in suite")
	}
	srcs := problemSources(p, Verilog)
	iter := 0
	variant := func() Source {
		iter++
		return Source{Name: srcs[0].Name, Text: fmt.Sprintf("// iteration %d\n", iter) + srcs[0].Text}
	}
	elaborate := func(cache *DesignCache, dut Source) {
		comp := Compile(cache, Verilog, dut, srcs[1])
		if !comp.OK {
			t.Fatalf("compile failed:\n%s", comp.Log)
		}
		if _, err := vsim.Elaborate(comp.Modules, bench.TBName); err != nil {
			t.Fatalf("elaborate: %v", err)
		}
	}
	cold := testing.AllocsPerRun(10, func() { elaborate(nil, variant()) })
	cache := NewDesignCache()
	elaborate(cache, variant()) // prime the testbench parse
	warm := testing.AllocsPerRun(10, func() { elaborate(cache, variant()) })
	if warm*2 > cold {
		t.Errorf("warm repair iteration allocs %.0f not 2x below cold %.0f", warm, cold)
	}
	t.Logf("compile+elaborate allocs: cold=%.0f warm=%.0f (%.1fx)", cold, warm, cold/warm)
}
