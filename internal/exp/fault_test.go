package exp

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

// flakyOptions builds sweep options routing every LLM call through the
// flaky provider (behind the default stack) on an auto clock, so
// retry backoffs consume no wall-clock.
func flakyOptions(fc provider.FlakyConfig, r *runner.Runner, probs []*bench.Problem) Options {
	sc := provider.DefaultStackConfig()
	sc.Clock = provider.NewAutoClock()
	return Options{
		Problems:       probs,
		Runner:         r,
		Provider:       "flaky",
		ProviderConfig: provider.BuildConfig{Stack: sc, Flaky: fc},
	}
}

// TestSweepSurvivesProviderOutage drives a sweep against a totally
// unavailable provider and then re-runs it against a healthy one on
// the same cache: aborted cells must surface as Failed, must NOT be
// cached, and the re-run must recompute exactly those cells. This is
// the resilience contract at the harness level — a partial outage
// costs only the failed cells, never a poisoned cache.
func TestSweepSurvivesProviderOutage(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	probs := bench.NewSuite().Problems[:4]
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: total outage. Every cell aborts.
	r1 := &runner.Runner{Workers: 2, Cache: cache}
	down := provider.FlakyConfig{Seed: 1, ErrorRate: 1,
		Classes: []provider.Class{provider.ClassUnavailable}}
	sum := Run(model, edatool.Verilog, flakyOptions(down, r1, probs))
	if sum.N != 0 {
		t.Fatalf("outage sweep produced %d outcomes, want 0", sum.N)
	}
	st := r1.Stats()
	if st.Failed != len(probs) {
		t.Errorf("failed = %d, want %d", st.Failed, len(probs))
	}
	if cache.Len() != 0 {
		t.Fatalf("outage wrote %d poisoned cache entries", cache.Len())
	}

	// Phase 2: provider recovered (rate 0 = transparent). Same cache,
	// same keys — the failed cells are recomputed, not replayed.
	r2 := &runner.Runner{Workers: 2, Cache: cache}
	up := provider.FlakyConfig{Seed: 1, ErrorRate: 0}
	sum2 := Run(model, edatool.Verilog, flakyOptions(up, r2, probs))
	if sum2.N != len(probs) {
		t.Fatalf("recovery sweep produced %d outcomes, want %d", sum2.N, len(probs))
	}
	st2 := r2.Stats()
	if st2.Executed != len(probs) || st2.CacheHits != 0 {
		t.Errorf("recovery stats = %+v, want all cells recomputed", st2)
	}
	if cache.Len() != len(probs) {
		t.Errorf("cache has %d entries after recovery, want %d", cache.Len(), len(probs))
	}
	for _, o := range sum2.Outcomes {
		if o.Provider != "flaky" {
			t.Errorf("outcome %s records provider %q, want flaky", o.ID, o.Provider)
		}
	}

	// Phase 3: identical invocation is served fully from cache.
	r3 := &runner.Runner{Workers: 2, Cache: cache}
	sum3 := Run(model, edatool.Verilog, flakyOptions(up, r3, probs))
	if st3 := r3.Stats(); st3.CacheHits != len(probs) || st3.Executed != 0 {
		t.Errorf("replay stats = %+v, want pure cache hits", st3)
	}
	if len(sum3.Outcomes) != len(sum2.Outcomes) {
		t.Fatal("replay changed the outcome set")
	}
	for i := range sum3.Outcomes {
		if sum3.Outcomes[i] != sum2.Outcomes[i] {
			t.Errorf("outcome %d changed across cache replay", i)
		}
	}
}

// TestFlakySweepAtTransparentRateMatchesOffline proves the provider
// tag — not the provider plumbing — is the only observable difference:
// a 0-rate flaky sweep equals the offline sweep except for the
// recorded provider name, and it occupies different cache keys.
func TestFlakySweepAtTransparentRateMatchesOffline(t *testing.T) {
	model := llm.ProfileByName("llama3-70b")
	probs := bench.NewSuite().Problems[:3]

	offline := Run(model, edatool.Verilog, Options{Problems: probs})
	flaky := Run(model, edatool.Verilog,
		flakyOptions(provider.FlakyConfig{Seed: 5, ErrorRate: 0}, nil, probs))

	if offline.Provider != "" {
		t.Errorf("offline summary provider = %q, want empty", offline.Provider)
	}
	if flaky.Provider != "flaky" {
		t.Errorf("flaky summary provider = %q", flaky.Provider)
	}
	if offline.N != flaky.N {
		t.Fatalf("N diverged: %d vs %d", offline.N, flaky.N)
	}
	for i := range offline.Outcomes {
		a, b := offline.Outcomes[i], flaky.Outcomes[i]
		if a.Provider != "" || b.Provider != "flaky" {
			t.Errorf("outcome %d provider tags = %q/%q", i, a.Provider, b.Provider)
		}
		b.Provider = a.Provider
		if a != b {
			t.Errorf("outcome %d diverged beyond the provider tag:\noffline: %+v\nflaky:   %+v", i, a, b)
		}
	}
}

// TestUnknownProviderPanics pins the contract that provider selection
// is validated before a sweep, not silently defaulted mid-sweep.
func TestUnknownProviderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown provider name did not panic")
		}
	}()
	model := llm.ProfileByName("gpt-4o")
	Run(model, edatool.Verilog, Options{
		Problems: bench.NewSuite().Problems[:1],
		Provider: "gpt-live",
	})
}
