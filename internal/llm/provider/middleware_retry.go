package provider

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Retry re-attempts calls that fail with a retryable class, sleeping a
// full-jitter backoff between attempts: U[0, min(cap, base<<attempt)).
// Full jitter (the AWS architecture-blog variant) decorrelates the
// retry storms of concurrent sessions that failed together. Once the
// attempt budget is spent the last error is wrapped in ClassExhausted,
// which is itself non-retryable — an outer retry can never multiply an
// inner one.
type Retry struct {
	clock    Clock
	attempts int
	base     time.Duration
	cap      time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetry returns a retry policy with the given total attempt budget
// (clamped to >= 1; 1 means no retries) and a seeded jitter source.
func NewRetry(clock Clock, attempts int, base, cap time.Duration, seed int64) *Retry {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Retry{clock: clock, attempts: attempts, base: base, cap: cap,
		rng: rand.New(rand.NewSource(seed))}
}

// Wrap implements Middleware.
func (r *Retry) Wrap(next DoFunc) DoFunc {
	return func(ctx context.Context, req *Request) (Response, error) {
		var last error
		for attempt := 0; attempt < r.attempts; attempt++ {
			if attempt > 0 {
				if err := r.clock.Sleep(ctx, r.backoff(attempt-1)); err != nil {
					return Response{}, &Error{Class: ClassOf(err), Op: req.Op, Attempts: attempt, Err: err}
				}
			}
			resp, err := next(ctx, req)
			if err == nil {
				return resp, nil
			}
			if !Retryable(err) {
				return Response{}, err
			}
			last = err
		}
		return Response{}, &Error{Class: ClassExhausted, Op: req.Op, Attempts: r.attempts, Err: last}
	}
}

// backoff draws the full-jitter delay before attempt+2.
func (r *Retry) backoff(attempt int) time.Duration {
	ceil := r.base << uint(attempt)
	if ceil <= 0 || ceil > r.cap { // <= 0 catches shift overflow
		ceil = r.cap
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(f * float64(ceil))
}
