package provider

import (
	"context"
	"errors"
	"testing"
	"time"
)

// okDo is the innermost no-op call for middleware-in-isolation tests.
func okDo(ctx context.Context, req *Request) (Response, error) {
	return Response{Latency: 1}, nil
}

// failDo returns a DoFunc failing with the given class.
func failDo(class Class) DoFunc {
	return func(ctx context.Context, req *Request) (Response, error) {
		return Response{}, &Error{Class: class, Op: req.Op, Err: errInjected}
	}
}

func TestRetrySucceedsFirstAttempt(t *testing.T) {
	c := NewAutoClock()
	r := NewRetry(c, 3, 100*time.Millisecond, time.Second, 1)
	calls := 0
	do := r.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		calls++
		return Response{Latency: 2}, nil
	})
	start := c.Now()
	resp, err := do(context.Background(), &Request{})
	if err != nil || resp.Latency != 2 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
	if !c.Now().Equal(start) {
		t.Errorf("success path slept %v", c.Now().Sub(start))
	}
}

func TestRetryRecoversFromTransientFailure(t *testing.T) {
	c := NewAutoClock()
	r := NewRetry(c, 3, 100*time.Millisecond, time.Second, 42)
	calls := 0
	do := r.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		calls++
		if calls < 3 {
			return Response{}, &Error{Class: ClassUnavailable, Err: errInjected}
		}
		return Response{Latency: 1}, nil
	})
	start := c.Now()
	if _, err := do(context.Background(), &Request{}); err != nil {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Two backoffs were slept: U[0,100ms) + U[0,200ms) < 300ms total.
	if slept := c.Now().Sub(start); slept < 0 || slept >= 300*time.Millisecond {
		t.Errorf("total backoff %v outside [0, 300ms)", slept)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	c := NewAutoClock()
	r := NewRetry(c, 5, 100*time.Millisecond, time.Second, 1)
	calls := 0
	do := r.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		calls++
		return Response{}, &Error{Class: ClassInvalid, Err: errInjected}
	})
	_, err := do(context.Background(), &Request{})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (invalid requests must not retry)", calls)
	}
	if ClassOf(err) != ClassInvalid {
		t.Errorf("class = %v, want invalid passed through", ClassOf(err))
	}
}

func TestRetryExhaustion(t *testing.T) {
	c := NewAutoClock()
	r := NewRetry(c, 4, 50*time.Millisecond, time.Second, 7)
	calls := 0
	do := r.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		calls++
		return Response{}, &Error{Class: ClassUnavailable, Err: errInjected}
	})
	_, err := do(context.Background(), &Request{Op: OpGenerateTestbench})
	if calls != 4 {
		t.Errorf("calls = %d, want full budget 4", calls)
	}
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *Error", err)
	}
	if pe.Class != ClassExhausted || pe.Attempts != 4 || pe.Op != OpGenerateTestbench {
		t.Errorf("error = %+v, want exhausted after 4 attempts", pe)
	}
	// The last underlying failure stays reachable for diagnostics.
	if !errors.Is(err, errInjected) {
		t.Error("exhausted error lost the underlying cause")
	}
	// Exhausted is terminal: a nested retry cannot multiply attempts.
	if Retryable(err) {
		t.Error("exhausted must not be retryable")
	}
}

func TestRetryBackoffBounds(t *testing.T) {
	c := NewMockClock()
	r := NewRetry(c, 10, 100*time.Millisecond, 2*time.Second, 3)
	for attempt := 0; attempt < 64; attempt++ {
		ceil := 100 * time.Millisecond << uint(attempt)
		if ceil <= 0 || ceil > 2*time.Second { // shift overflow or cap
			ceil = 2 * time.Second
		}
		for draw := 0; draw < 200; draw++ {
			if d := r.backoff(attempt); d < 0 || d >= ceil {
				t.Fatalf("backoff(%d) = %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

func TestRetryBackoffDeterministicPerSeed(t *testing.T) {
	draws := func(seed int64) []time.Duration {
		r := NewRetry(NewMockClock(), 3, 100*time.Millisecond, time.Second, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = r.backoff(i % 4)
		}
		return out
	}
	a, b := draws(5), draws(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	if c := draws(6); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

func TestRetryCancelledDuringBackoff(t *testing.T) {
	c := NewMockClock()
	r := NewRetry(c, 3, time.Second, time.Second, 1)
	do := r.Wrap(failDo(ClassUnavailable))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := do(ctx, &Request{Op: OpGenerateRTL})
		errc <- err
	}()
	c.BlockUntil(1) // retry asleep in its first backoff
	cancel()
	err := <-errc
	var pe *Error
	if !errors.As(err, &pe) || pe.Class != ClassCanceled {
		t.Fatalf("err = %v, want classified canceled", err)
	}
	if pe.Attempts != 1 {
		t.Errorf("attempts = %d, want the 1 consumed before cancellation", pe.Attempts)
	}
}

func TestRetryAttemptsClamp(t *testing.T) {
	c := NewAutoClock()
	r := NewRetry(c, 0, 0, 0, 1) // everything clamps to a sane minimum
	calls := 0
	do := r.Wrap(func(ctx context.Context, req *Request) (Response, error) {
		calls++
		return Response{}, &Error{Class: ClassUnavailable, Err: errInjected}
	})
	do(context.Background(), &Request{})
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (attempts clamps to 1)", calls)
	}
}
