package provider

import (
	"context"
	"errors"
	"math/rand"
	"sync"

	"repro/internal/llm"
)

var errInjected = errors.New("injected fault")

// FlakyConfig parameterises fault injection.
type FlakyConfig struct {
	// Seed drives the fault RNG; the same seed and call order replay
	// the same faults.
	Seed int64
	// ErrorRate is the per-call probability of an injected failure.
	ErrorRate float64
	// Classes are the failure classes sampled uniformly per injected
	// error. Nil defaults to {ClassUnavailable, ClassRateLimited}.
	Classes []Class
}

// DefaultFlakyConfig returns the fault profile the CLIs use when the
// flaky provider is selected without explicit knobs.
func DefaultFlakyConfig() FlakyConfig {
	return FlakyConfig{Seed: 1, ErrorRate: 0.25}
}

// Flaky wraps another provider with seeded, configurable fault
// injection: classified errors at ErrorRate. It exists to prove the
// middleware stack and the pipeline degrade gracefully; it is
// deterministic for a fixed seed and call order.
type Flaky struct {
	inner Provider
	cfg   FlakyConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFlaky wraps inner with the given fault profile.
func NewFlaky(inner Provider, cfg FlakyConfig) *Flaky {
	if cfg.Classes == nil {
		cfg.Classes = []Class{ClassUnavailable, ClassRateLimited}
	}
	return &Flaky{inner: inner, cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Provider.
func (f *Flaky) Name() string { return "flaky" }

// ModelName implements Provider.
func (f *Flaky) ModelName() string { return f.inner.ModelName() }

// License implements Provider.
func (f *Flaky) License() string { return f.inner.License() }

// NewSession implements Provider. All sessions share the provider's
// fault RNG, like real outages that hit every conversation at once.
func (f *Flaky) NewSession(req llm.GenRequest) (Session, error) {
	s, err := f.inner.NewSession(req)
	if err != nil {
		return nil, err
	}
	return &flakySession{f: f, inner: s}, nil
}

// roll draws the fault class for one call (ClassOK = no fault) in a
// fixed RNG order.
func (f *Flaky) roll() Class {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.ErrorRate > 0 && f.rng.Float64() < f.cfg.ErrorRate {
		return f.cfg.Classes[f.rng.Intn(len(f.cfg.Classes))]
	}
	return ClassOK
}

type flakySession struct {
	f     *Flaky
	inner Session
}

// Snapshot implements Resumable by delegating to the wrapped session:
// the fault RNG is infrastructure noise, not conversation state, so a
// resumed run may see a different fault pattern but — through the
// retry stack — the same model outputs.
func (s *flakySession) Snapshot() ([]byte, error) { return SnapshotSession(s.inner) }

// Restore implements Resumable.
func (s *flakySession) Restore(data []byte) error { return RestoreSession(s.inner, data) }

// Do implements Session: either fail with the injected class or
// delegate to the wrapped provider.
func (s *flakySession) Do(ctx context.Context, req *Request) (Response, error) {
	if class := s.f.roll(); class != ClassOK {
		return Response{}, &Error{Class: class, Op: req.Op, Provider: "flaky", Err: errInjected}
	}
	return s.inner.Do(ctx, req)
}
