package exp

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/runner"
)

func sampleProblems(every int) []*bench.Problem {
	suite := bench.NewSuite()
	var out []*bench.Problem
	for i, p := range suite.Problems {
		if i%every == 0 {
			out = append(out, p)
		}
	}
	return out
}

func TestRunAggregation(t *testing.T) {
	problems := sampleProblems(16)
	s := Run(llm.ProfileByName("claude-3.5-sonnet"), edatool.Verilog,
		Options{Problems: problems})
	if s.N != len(problems) || len(s.Outcomes) != s.N {
		t.Fatalf("N = %d, outcomes = %d", s.N, len(s.Outcomes))
	}
	if s.LoopSyntaxPass < s.BaselineSyntaxPass {
		t.Errorf("syntax loop (%d) must not be worse than baseline (%d)",
			s.LoopSyntaxPass, s.BaselineSyntaxPass)
	}
	baseS, baseF, loopS, loopF := s.Rates()
	for _, r := range []float64{baseS, baseF, loopS, loopF} {
		if r < 0 || r > 100 {
			t.Errorf("rate %v out of range", r)
		}
	}
	if s.AvgBaselineLatency <= 0 || s.AvgSyntaxLatency <= 0 {
		t.Errorf("latency averages: %+v", s)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	problems := sampleProblems(20)
	m := llm.ProfileByName("llama3-70b")
	a := Run(m, edatool.VHDL, Options{Problems: problems, MaxWorkers: 1})
	b := Run(m, edatool.VHDL, Options{Problems: problems, MaxWorkers: 8})
	if a.LoopFuncPass != b.LoopFuncPass || a.BaselineSyntaxPass != b.BaselineSyntaxPass {
		t.Error("results depend on worker count (missing determinism)")
	}
}

func TestDeltaF(t *testing.T) {
	s := &Summary{N: 100, BaselineFuncPass: 50, LoopFuncPass: 70}
	d, ok := s.DeltaF()
	if !ok || d != 40 {
		t.Errorf("DeltaF = %v, %v (want 40)", d, ok)
	}
	s2 := &Summary{N: 100, BaselineFuncPass: 0, LoopFuncPass: 30}
	if _, ok := s2.DeltaF(); ok {
		t.Error("zero baseline must be N/A")
	}
}

func TestConfigureHook(t *testing.T) {
	problems := sampleProblems(24)
	hit := false
	Run(llm.ProfileByName("gpt-4o"), edatool.Verilog, Options{
		Problems: problems,
		Configure: func(c *core.Config) {
			hit = true
			c.SkipFunctional = true
		},
	})
	if !hit {
		t.Error("configure hook not invoked")
	}
}

func TestMatrixShape(t *testing.T) {
	problems := sampleProblems(40)
	m := Matrix(Options{Problems: problems})
	if len(m) != 6 {
		t.Fatalf("matrix entries = %d, want 6 (3 models x 2 languages)", len(m))
	}
	seen := map[string]bool{}
	for _, s := range m {
		seen[s.Model+"/"+s.Language.String()] = true
	}
	if len(seen) != 6 {
		t.Errorf("duplicate matrix entries: %v", seen)
	}
}

func TestCategoryRates(t *testing.T) {
	s := &Summary{Outcomes: []ProblemOutcome{
		{Category: "fsm", LoopFuncOK: true},
		{Category: "fsm", LoopFuncOK: false},
		{Category: "gates", LoopFuncOK: true},
	}}
	cr := s.CategoryRates()
	if cr["fsm"] != [2]int{1, 2} || cr["gates"] != [2]int{1, 1} {
		t.Errorf("CategoryRates = %v", cr)
	}
}

func mustCache(t *testing.T) *runner.Cache {
	t.Helper()
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCachedRunIsIdentical: a second identical sweep against the same
// cache directory must be served entirely from cache and reproduce the
// first run's summary bit for bit.
func TestCachedRunIsIdentical(t *testing.T) {
	problems := sampleProblems(20)
	model := llm.ProfileByName("claude-3.5-sonnet")
	cache := mustCache(t)

	r1 := &runner.Runner{Cache: cache}
	a := Run(model, edatool.Verilog, Options{Problems: problems, Runner: r1})
	if st := r1.Stats(); st.Executed != len(problems) || st.CacheHits != 0 {
		t.Fatalf("cold run stats: %+v", st)
	}

	r2 := &runner.Runner{Cache: cache}
	b := Run(model, edatool.Verilog, Options{Problems: problems, Runner: r2})
	if st := r2.Stats(); st.CacheHits != len(problems) || st.Executed != 0 {
		t.Fatalf("warm run stats: %+v (want 100%% hits)", st)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cached summary differs:\n  cold %+v\n  warm %+v", a, b)
	}
}

// TestConfigureChangesCacheCell: ablation variants must not collide
// with the default configuration in the cache.
func TestConfigureChangesCacheCell(t *testing.T) {
	problems := sampleProblems(30)
	model := llm.ProfileByName("claude-3.5-sonnet")
	cache := mustCache(t)

	Run(model, edatool.Verilog, Options{Problems: problems, Runner: &runner.Runner{Cache: cache}})
	r := &runner.Runner{Cache: cache}
	Run(model, edatool.Verilog, Options{
		Problems:  problems,
		Runner:    r,
		Configure: func(c *core.Config) { c.SkipFunctional = true },
	})
	if st := r.Stats(); st.CacheHits != 0 || st.Executed != len(problems) {
		t.Fatalf("ablation hit default-config cells: %+v", st)
	}
}
