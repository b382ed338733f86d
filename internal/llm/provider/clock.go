package provider

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Clock abstracts time for the middleware stack. Retry backoff sleeps
// and the tracing/metrics wall-clock readings go through an injected
// Clock, so they are unit-testable with MockClock and zero real sleeps.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case and nil after a full sleep.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock returns the process wall clock.
func RealClock() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MockClock is a deterministic Clock for tests. Time moves only when
// the test calls Advance — or, in auto mode, when a Sleep consumes its
// own duration — so no middleware test ever waits on the wall clock.
type MockClock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	now      time.Time
	sleepers []*sleeper
	auto     bool
}

// sleeper is one goroutine blocked in Sleep until the clock reaches
// its deadline.
type sleeper struct {
	deadline time.Time
	wake     chan struct{}
}

// NewMockClock returns a manually advanced mock clock at a fixed
// epoch.
func NewMockClock() *MockClock {
	c := &MockClock{now: time.Unix(1_700_000_000, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// NewAutoClock returns a mock clock whose Sleep calls advance the
// clock themselves. A pipeline run over retrying middleware then
// completes instantly and deterministically with no driver goroutine.
func NewAutoClock() *MockClock {
	c := NewMockClock()
	c.auto = true
	return c
}

// Now returns the mock time.
func (c *MockClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Pending returns the number of blocked sleepers.
func (c *MockClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sleepers)
}

// BlockUntil blocks until at least n sleepers are pending — the
// rendezvous a test needs before advancing past a sleeping goroutine.
func (c *MockClock) BlockUntil(n int) {
	c.mu.Lock()
	for len(c.sleepers) < n {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Advance moves the clock forward by d and wakes every sleeper whose
// deadline it reaches.
func (c *MockClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.sleepers[:0]
	for _, s := range c.sleepers {
		if s.deadline.After(c.now) {
			kept = append(kept, s)
		} else {
			close(s.wake)
		}
	}
	clear(c.sleepers[len(kept):])
	c.sleepers = kept
}

// Sleep implements Clock. In auto mode it advances the clock itself;
// otherwise it blocks until an Advance reaches the deadline or ctx is
// done.
func (c *MockClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if c.auto {
		c.Advance(d)
		return ctx.Err()
	}
	c.mu.Lock()
	s := &sleeper{deadline: c.now.Add(d), wake: make(chan struct{})}
	c.sleepers = append(c.sleepers, s)
	c.cond.Broadcast()
	c.mu.Unlock()
	select {
	case <-s.wake:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		defer c.mu.Unlock()
		if i := slices.Index(c.sleepers, s); i >= 0 {
			c.sleepers = slices.Delete(c.sleepers, i, i+1)
		}
		return ctx.Err()
	}
}
