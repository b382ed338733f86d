package provider

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestMetricsCountsCallsAndFailures(t *testing.T) {
	c := NewMockClock()
	m := NewMetrics(c)
	ok := m.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		c.Advance(3 * time.Millisecond)
		return Response{Latency: 1.5}, nil
	})
	fail := m.Wrap(failDo(ClassUnavailable))

	for i := 0; i < 4; i++ {
		ok(context.Background(), &Request{Op: OpGenerateRTL})
	}
	fail(context.Background(), &Request{Op: OpGenerateRTL})
	fail(context.Background(), &Request{Op: OpAnalysis})

	snap := m.Snapshot()
	rtl := snap[OpGenerateRTL.String()]
	if rtl.Calls != 5 {
		t.Errorf("generate-rtl calls = %d, want 5", rtl.Calls)
	}
	if got := rtl.Failures[ClassUnavailable.String()]; got != 1 {
		t.Errorf("generate-rtl unavailable failures = %d, want 1", got)
	}
	if rtl.ModelledSeconds != 6 { // 4 successes x 1.5s
		t.Errorf("modelled = %v, want 6", rtl.ModelledSeconds)
	}
	if p99 := rtl.P99Wall(); p99 < 3*time.Millisecond || p99 > 8*time.Millisecond {
		t.Errorf("p99 wall = %v, want a power-of-two bound covering 3ms", p99)
	}
	if snap[OpAnalysis.String()].Calls != 1 {
		t.Errorf("analysis calls = %d", snap[OpAnalysis.String()].Calls)
	}
	// Untouched ops are absent from the snapshot.
	if _, present := snap[OpRepairTestbench.String()]; present {
		t.Error("snapshot contains an op that was never called")
	}
}

func TestMetricsRender(t *testing.T) {
	c := NewMockClock()
	m := NewMetrics(c)
	if got := m.Render(); got != "llm metrics: no calls" {
		t.Errorf("empty render = %q", got)
	}
	m.Wrap(okDo)(context.Background(), &Request{Op: OpGenerateTestbench})
	m.Wrap(failDo(ClassTimeout))(context.Background(), &Request{Op: OpGenerateTestbench})
	out := m.Render()
	for _, want := range []string{"generate-testbench", "calls=2", "timeout:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestTracingEmitsPerCallLines(t *testing.T) {
	c := NewMockClock()
	var lines []string
	tr := NewTracing(c, func(stage, detail string) {
		lines = append(lines, stage+": "+detail)
	})
	do := tr.Wrap(okDo)
	do(context.Background(), &Request{Op: OpGenerateRTL})
	tr.Wrap(failDo(ClassUnavailable))(context.Background(), &Request{Op: OpAnalysis})

	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], "generate-rtl ok") {
		t.Errorf("success line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "analysis failed (unavailable)") {
		t.Errorf("failure line = %q", lines[1])
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "llm: ") {
			t.Errorf("stage of %q is not llm", l)
		}
	}
}

func TestTracingNilHookIsFree(t *testing.T) {
	tr := NewTracing(NewMockClock(), nil)
	called := false
	next := func(ctx context.Context, req *Request) (Response, error) {
		called = true
		return Response{}, nil
	}
	do := tr.Wrap(next)
	ctx, req := context.Background(), &Request{}
	do(ctx, req)
	if !called {
		t.Error("nil-hook wrap lost the call")
	}
	if n := testing.AllocsPerRun(100, func() {
		do(ctx, req)
	}); n != 0 {
		t.Errorf("nil-hook tracing allocates %.1f per call", n)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Class: ClassExhausted, Op: OpGenerateRTL, Provider: "flaky", Attempts: 3, Err: errInjected}
	msg := e.Error()
	for _, want := range []string{"generate-rtl", "flaky", "exhausted", "3 attempt", "injected fault"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
	if ClassOf(e) != ClassExhausted {
		t.Errorf("ClassOf = %v", ClassOf(e))
	}
}

func TestClassTaxonomy(t *testing.T) {
	retryable := map[Class]bool{
		ClassOK: false, ClassRateLimited: true, ClassUnavailable: true,
		ClassTimeout: true, ClassCanceled: false, ClassInvalid: false,
		ClassExhausted: false,
	}
	if len(retryable) != numClasses {
		t.Fatalf("taxonomy drifted: %d classes, test covers %d", numClasses, len(retryable))
	}
	for class, want := range retryable {
		if class.Retryable() != want {
			t.Errorf("%v.Retryable() = %v, want %v", class, class.Retryable(), want)
		}
		if class.String() == "unknown" {
			t.Errorf("class %d has no name", class)
		}
	}
	if ClassOf(nil) != ClassOK {
		t.Error("ClassOf(nil) != ok")
	}
	if ClassOf(context.DeadlineExceeded) != ClassTimeout {
		t.Error("deadline exceeded must classify as timeout")
	}
	if ClassOf(context.Canceled) != ClassCanceled {
		t.Error("canceled must classify as canceled")
	}
	if ClassOf(errInjected) != ClassInvalid {
		t.Error("unknown errors must classify as invalid (never retried)")
	}
}

// TestResumableAfter pins the job service's resume-or-fail decision:
// transient failures (directly, or as the cause of an exhausted retry
// budget) leave a job resumable; cancellation, invalid requests and
// unknown errors do not.
func TestResumableAfter(t *testing.T) {
	classed := func(c Class, cause error) error { return &Error{Class: c, Err: cause} }
	exhausted := func(cause error) error { return classed(ClassExhausted, cause) }
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"ok", nil, false},
		{"rate-limited", classed(ClassRateLimited, errInjected), true},
		{"unavailable", classed(ClassUnavailable, errInjected), true},
		{"timeout", classed(ClassTimeout, errInjected), true},
		{"canceled", classed(ClassCanceled, errInjected), false},
		{"invalid", classed(ClassInvalid, errInjected), false},
		{"unknown error", errInjected, false},
		{"raw deadline exceeded", context.DeadlineExceeded, true},
		{"raw canceled", context.Canceled, false},
		{"wrapped unavailable", fmt.Errorf("turn 3: %w", classed(ClassUnavailable, errInjected)), true},
		{"wrapped invalid", fmt.Errorf("turn 3: %w", classed(ClassInvalid, errInjected)), false},
		{"exhausted on transient", exhausted(classed(ClassUnavailable, errInjected)), true},
		{"exhausted on deadline", exhausted(context.DeadlineExceeded), true},
		{"exhausted on invalid", exhausted(classed(ClassInvalid, errInjected)), false},
		{"exhausted on canceled", exhausted(context.Canceled), false},
		{"exhausted, nil cause", exhausted(nil), true},
		{"exhausted on exhausted", exhausted(exhausted(classed(ClassRateLimited, errInjected))), true},
		{"wrapped exhausted on transient", fmt.Errorf("state: %w", exhausted(classed(ClassTimeout, errInjected))), true},
	}
	covered := map[Class]bool{}
	for _, tc := range cases {
		covered[ClassOf(tc.err)] = true
		if got := ResumableAfter(tc.err); got != tc.want {
			t.Errorf("%s: ResumableAfter(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
	if len(covered) != numClasses {
		t.Errorf("table covers %d of %d classes", len(covered), numClasses)
	}
}
