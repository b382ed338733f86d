package provider

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
)

func genReq(t *testing.T) llm.GenRequest {
	t.Helper()
	prob := bench.NewSuite().ByID("gate_and")
	if prob == nil {
		t.Fatal("fixture problem missing")
	}
	return llm.GenRequest{Problem: prob, Language: edatool.Verilog}
}

// namedMW records traversal order to prove Chain composes outermost
// first.
type namedMW struct {
	id    string
	trail *[]string
}

func (m namedMW) Wrap(next DoFunc) DoFunc {
	return func(ctx context.Context, req *Request) (Response, error) {
		*m.trail = append(*m.trail, m.id)
		return next(ctx, req)
	}
}

func TestChainOrdering(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	var trail []string
	p := Chain(NewOffline(model),
		namedMW{"outer", &trail}, namedMW{"mid", &trail}, namedMW{"inner", &trail})
	if p.Name() != "offline" || p.ModelName() != "gpt-4o" {
		t.Errorf("chained identity = %s/%s", p.Name(), p.ModelName())
	}
	s, err := p.NewSession(genReq(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), &Request{Op: OpAnalysis, Kind: llm.SyntaxFeedback}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(trail, ","); got != "outer,mid,inner" {
		t.Errorf("traversal = %s, want outer,mid,inner", got)
	}
}

func TestChainEmptyIsIdentity(t *testing.T) {
	p := NewOffline(llm.ProfileByName("gpt-4o"))
	if Chain(p) != Provider(p) {
		t.Error("empty chain must return the provider unchanged")
	}
}

// runSession replays a fixed op sequence and returns the responses.
func runSession(t *testing.T, p Provider) []Response {
	t.Helper()
	s, err := p.NewSession(genReq(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := []Request{
		{Op: OpGenerateTestbench},
		{Op: OpGenerateRTL},
		{Op: OpAnalysis, Kind: llm.SyntaxFeedback, Items: 2},
		{Op: OpGenerateRTL, Feedback: &llm.Feedback{Kind: llm.SyntaxFeedback, Items: []llm.FeedbackItem{{Line: 1, Message: "x"}}}},
	}
	var out []Response
	for i := range reqs {
		resp, err := s.Do(ctx, &reqs[i])
		if err != nil {
			t.Fatalf("op %v: %v", reqs[i].Op, err)
		}
		out = append(out, resp)
	}
	return out
}

// TestStackPreservesOfflineDeterminism is the heart of the tentpole's
// compatibility claim: the full default middleware stack around the
// offline provider is byte-for-byte transparent.
func TestStackPreservesOfflineDeterminism(t *testing.T) {
	model := llm.ProfileByName("llama3-70b")
	bare := runSession(t, NewOffline(model))
	stacked := runSession(t, NewStack(NewOffline(model), DefaultStackConfig()))
	if len(bare) != len(stacked) {
		t.Fatalf("response counts differ: %d vs %d", len(bare), len(stacked))
	}
	for i := range bare {
		if bare[i] != stacked[i] {
			t.Errorf("op %d diverged:\nbare:    %+v\nstacked: %+v", i, bare[i], stacked[i])
		}
	}
}

func TestOfflineUnknownOp(t *testing.T) {
	p := NewOffline(llm.ProfileByName("gpt-4o"))
	s, _ := p.NewSession(genReq(t))
	_, err := s.Do(context.Background(), &Request{Op: Op(99)})
	if ClassOf(err) != ClassInvalid {
		t.Errorf("class = %v, want invalid", ClassOf(err))
	}
}

func TestOfflinePreCancelledContext(t *testing.T) {
	p := NewOffline(llm.ProfileByName("gpt-4o"))
	s, _ := p.NewSession(genReq(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, &Request{Op: OpGenerateTestbench}); ClassOf(err) != ClassCanceled {
		t.Errorf("class = %v, want canceled before any RNG is consumed", ClassOf(err))
	}
}

func TestFlakyDeterministicPerSeed(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	replay := func(seed int64) []Class {
		f := NewFlaky(NewOffline(model), FlakyConfig{Seed: seed, ErrorRate: 0.5})
		s, err := f.NewSession(genReq(t))
		if err != nil {
			t.Fatal(err)
		}
		var classes []Class
		for i := 0; i < 32; i++ {
			_, err := s.Do(context.Background(), &Request{Op: OpAnalysis, Kind: llm.SyntaxFeedback})
			classes = append(classes, ClassOf(err))
		}
		return classes
	}
	a, b := replay(7), replay(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	sawError := false
	for _, cl := range a {
		if cl != ClassOK {
			sawError = true
			if cl != ClassUnavailable && cl != ClassRateLimited {
				t.Errorf("default fault class = %v, want unavailable or rate-limited", cl)
			}
		}
	}
	if !sawError {
		t.Error("error rate 0.5 over 32 calls injected nothing")
	}
}

func TestFlakyZeroRateIsTransparent(t *testing.T) {
	model := llm.ProfileByName("llama3-70b")
	bare := runSession(t, NewOffline(model))
	flaky := runSession(t, NewFlaky(NewOffline(model), FlakyConfig{Seed: 3, ErrorRate: 0}))
	for i := range bare {
		if bare[i] != flaky[i] {
			t.Errorf("op %d diverged under 0-rate flaky", i)
		}
	}
}

func TestNewBuildsBuiltins(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	names := Names()
	if len(names) != 2 || names[0] != "flaky" || names[1] != "offline" {
		t.Fatalf("builtin names = %v", names)
	}
	for _, name := range names {
		p, err := New(name, model, BuildConfig{Stack: DefaultStackConfig()})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p.Name() != name || p.ModelName() != "gpt-4o" {
			t.Errorf("New(%s) identity = %s/%s", name, p.Name(), p.ModelName())
		}
	}
	_, err := New("gpt-live", model, BuildConfig{})
	if want := `unknown provider "gpt-live" (have: flaky, offline)`; err == nil || err.Error() != want {
		t.Errorf("unknown provider error = %v, want %q", err, want)
	}
}

// TestSessionCheckpointContract checks Snapshot/Restore where the
// contract is defined: for every built-in provider under the default
// stack, and once more behind an extra middleware, a session snapshot
// after k ops restored into a fresh session of the same provider
// continues with exactly the responses the uninterrupted session gave.
func TestSessionCheckpointContract(t *testing.T) {
	model := llm.ProfileByName("claude-3.5-sonnet")
	syntaxFB := &llm.Feedback{Kind: llm.SyntaxFeedback, Items: []llm.FeedbackItem{{Line: 3, Message: "syntax error near x"}}}
	funcFB := &llm.Feedback{Kind: llm.FunctionalFeedback, Items: []llm.FeedbackItem{{Line: 7, Message: "mismatch"}}}
	reqs := []Request{
		{Op: OpGenerateTestbench},
		{Op: OpRepairTestbench, Feedback: syntaxFB},
		{Op: OpGenerateRTL},
		{Op: OpAnalysis, Kind: llm.SyntaxFeedback, Items: 1},
		{Op: OpGenerateRTL, Feedback: syntaxFB},
		{Op: OpGenerateRTL, Feedback: funcFB},
		{Op: OpAnalysis, Kind: llm.FunctionalFeedback, Items: 2},
		{Op: OpGenerateRTL, Feedback: syntaxFB},
	}
	ctx := context.Background()
	play := func(s Session, from int) []Response {
		var out []Response
		for i := from; i < len(reqs); i++ {
			resp, err := s.Do(ctx, &reqs[i])
			if err != nil {
				t.Fatalf("op %d (%v): %v", i, reqs[i].Op, err)
			}
			out = append(out, resp)
		}
		return out
	}
	task := genReq(t)
	open := func(p Provider) Session {
		s, err := p.NewSession(task)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var trail []string
	for _, name := range Names() {
		p, err := New(name, model, BuildConfig{Stack: DefaultStackConfig(), Flaky: FlakyConfig{ErrorRate: 0}})
		if err != nil {
			t.Fatal(err)
		}
		for _, prov := range []Provider{p, Chain(p, namedMW{"extra", &trail})} {
			want := play(open(prov), 0)
			for k := 0; k <= len(reqs); k++ {
				pre := open(prov)
				for i := 0; i < k; i++ {
					if _, err := pre.Do(ctx, &reqs[i]); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := pre.Snapshot()
				if err != nil {
					t.Fatalf("%s: snapshot after %d ops: %v", name, k, err)
				}
				post := open(prov)
				if err := post.Restore(snap); err != nil {
					t.Fatalf("%s: restore after %d ops: %v", name, k, err)
				}
				got := play(post, k)
				for i := range got {
					if got[i] != want[k+i] {
						t.Errorf("%s: resumed after %d ops, op %d diverged:\nresumed:       %+v\nuninterrupted: %+v",
							name, k, k+i, got[i], want[k+i])
					}
				}
			}
		}
	}
	if len(trail) == 0 {
		t.Error("the extra middleware never ran")
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		OpGenerateTestbench: "generate-testbench",
		OpGenerateRTL:       "generate-rtl",
		OpRepairTestbench:   "repair-testbench",
		OpAnalysis:          "analysis",
	}
	if len(want) != numOps {
		t.Fatalf("op set drifted")
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() != "invalid-op" {
		t.Error("out-of-range op must stringify safely")
	}
}

// TestStackSteadyStateAllocs is the allocation guard the CI alloc step
// runs: a steady-state analysis call through the full default stack —
// metrics and retry — must not allocate.
func TestStackSteadyStateAllocs(t *testing.T) {
	model := llm.ProfileByName("gpt-4o")
	cfg := DefaultStackConfig()
	cfg.Metrics = NewMetrics(RealClock())
	p := NewStack(NewOffline(model), cfg)
	s, err := p.NewSession(genReq(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := &Request{Op: OpAnalysis, Kind: llm.SyntaxFeedback, Items: 3}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("middleware chain allocates %.2f per steady-state call, want 0", n)
	}
}
