package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// faultConfig builds a pipeline config whose LLM calls go through the
// flaky provider behind the full default middleware stack, driven by
// an auto-advancing mock clock: retry backoffs consume zero
// wall-clock, so even pathological error rates finish instantly and
// deterministically.
func faultConfig(t *testing.T, model *llm.Profile, lang edatool.Language, fc provider.FlakyConfig) Config {
	t.Helper()
	sc := provider.DefaultStackConfig()
	sc.Clock = provider.NewAutoClock()
	cfg := DefaultConfig(model, lang)
	cfg.Provider = provider.NewStack(provider.NewFlaky(provider.NewOffline(model), fc), sc)
	return cfg
}

// runBounded executes the pipeline under a wall-clock watchdog: the
// graceful-degradation contract is "clean verdict or clean failure,
// never a hang".
func runBounded(t *testing.T, cfg Config, prob *bench.Problem) *Result {
	t.Helper()
	done := make(chan *Result, 1)
	go func() { done <- New(cfg).Run(prob) }()
	select {
	case res := <-done:
		return res
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline hung under fault injection")
		return nil
	}
}

// checkConsistent asserts an aborted result is a clean job failure:
// classified, and with no partial state claiming success.
func checkConsistent(t *testing.T, res *Result) {
	t.Helper()
	if !res.Aborted {
		if res.Err != nil {
			t.Errorf("non-aborted result carries err %v", res.Err)
		}
		return
	}
	if res.Err == nil {
		t.Error("aborted result has nil Err")
	}
	class := provider.ClassOf(res.Err)
	switch class {
	case provider.ClassExhausted, provider.ClassTimeout,
		provider.ClassCanceled, provider.ClassInvalid, provider.ClassUnavailable,
		provider.ClassRateLimited:
	default:
		t.Errorf("aborted with unclassified error %v (class %v)", res.Err, class)
	}
	if res.SelfVerified {
		t.Error("aborted run claims self-verification")
	}
	if v := res.Verdict(); len(v) < len("aborted(") || v[:8] != "aborted(" {
		t.Errorf("verdict = %q, want aborted(<class>)", v)
	}
}

// TestPipelineGracefulDegradation sweeps seeded error rates from
// mostly-healthy to pathological. At every rate the pipeline must
// terminate promptly with a classified verdict; transient faults under
// the retry budget are absorbed invisibly.
func TestPipelineGracefulDegradation(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	prob := bench.NewSuite().ByID("gate_and")
	for _, rate := range []float64{0.05, 0.3, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := faultConfig(t, model, edatool.Verilog,
				provider.FlakyConfig{Seed: seed, ErrorRate: rate})
			res := runBounded(t, cfg, prob)
			checkConsistent(t, res)
		}
	}
}

// TestPipelineAbortsOnPersistentOutage drives a 100% unavailable
// provider: the first LLM call must exhaust its retry budget and the
// run must abort with ClassExhausted — not hang, not return a
// fabricated result.
func TestPipelineAbortsOnPersistentOutage(t *testing.T) {
	model := llm.ProfileByName("llama3-70b")
	prob := bench.NewSuite().ByID("gate_and")
	cfg := faultConfig(t, model, edatool.Verilog, provider.FlakyConfig{
		Seed: 1, ErrorRate: 1, Classes: []provider.Class{provider.ClassUnavailable},
	})
	res := runBounded(t, cfg, prob)
	if !res.Aborted {
		t.Fatal("total outage did not abort the run")
	}
	if class := provider.ClassOf(res.Err); class != provider.ClassExhausted {
		t.Errorf("abort class = %v, want exhausted", class)
	}
	if res.BaselineRTL != "" || res.Testbench != "" {
		t.Error("aborted-before-first-artefact run has partial artefacts")
	}
	if res.Verdict() != "aborted(exhausted)" {
		t.Errorf("verdict = %q", res.Verdict())
	}
}

// TestPipelineZeroErrorRateMatchesOffline is the bridge between the
// fault harness and the determinism guarantee: the flaky provider at
// rate 0 is transparent, so the whole
// pipeline result matches a plain offline run field for field.
func TestPipelineZeroErrorRateMatchesOffline(t *testing.T) {
	model := llm.ProfileByName("claude-3.5-sonnet")
	prob := bench.NewSuite().ByID("mux_4to1_w8")
	if prob == nil {
		prob = bench.NewSuite().Problems[3]
	}
	want := New(DefaultConfig(model, edatool.Verilog)).Run(prob)
	cfg := faultConfig(t, model, edatool.Verilog, provider.FlakyConfig{Seed: 9, ErrorRate: 0})
	got := runBounded(t, cfg, prob)
	if got.Aborted {
		t.Fatalf("zero-rate flaky aborted: %v", got.Err)
	}
	if got.FinalRTL != want.FinalRTL || got.Testbench != want.Testbench ||
		got.SelfVerified != want.SelfVerified || got.SyntaxOK != want.SyntaxOK ||
		got.SyntaxIters != want.SyntaxIters || got.FuncIters != want.FuncIters ||
		got.Latency != want.Latency {
		t.Error("zero-rate flaky run diverged from plain offline run")
	}
}

// TestRunContextCancellation proves caller cancellation aborts cleanly
// with ClassCanceled.
func TestRunContextCancellation(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	prob := bench.NewSuite().ByID("gate_and")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(DefaultConfig(model, edatool.Verilog)).RunContext(ctx, prob)
	if !res.Aborted {
		t.Fatal("pre-cancelled context did not abort")
	}
	if class := provider.ClassOf(res.Err); class != provider.ClassCanceled {
		t.Errorf("abort class = %v, want canceled", class)
	}
}

// TestNilProviderAborts: a hand-built Config with neither Provider nor
// Model must fail closed, not panic.
func TestNilProviderAborts(t *testing.T) {
	prob := bench.NewSuite().ByID("gate_and")
	res := New(Config{Language: edatool.Verilog}).Run(prob)
	if !res.Aborted {
		t.Fatal("nil provider did not abort")
	}
	if provider.ClassOf(res.Err) != provider.ClassInvalid {
		t.Errorf("class = %v, want invalid", provider.ClassOf(res.Err))
	}
}
