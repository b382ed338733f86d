package provider

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/llm"
)

// Retry backoff constants of the standard stack: full jitter over
// [0, min(retryCap, retryBase<<attempt)), drawn from a seed-0 source.
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

// StackConfig parameterises the standard middleware chain. A nil Trace
// or Metrics, or Attempts <= 1, leaves that middleware out;
// DefaultStackConfig returns settings that leave the offline
// provider's behavior untouched (retry never fires on a call that
// never fails).
type StackConfig struct {
	// Clock drives retry backoff and the tracing/metrics wall-clock
	// readings; nil = RealClock.
	Clock Clock
	// Trace, when non-nil, installs the tracing middleware feeding the
	// pipeline transcript hook.
	Trace func(stage, detail string)
	// Metrics, when non-nil, is installed as the metrics sink (shared
	// across providers if the caller wishes).
	Metrics *Metrics
	// Attempts > 1 installs retry-with-full-jitter with that total
	// attempt budget per call.
	Attempts int
}

// DefaultStackConfig returns the standard stack: 3 attempts per call
// with 100ms–2s full-jitter backoff between them.
func DefaultStackConfig() StackConfig {
	return StackConfig{Attempts: 3}
}

// NewStack wraps p in the configured middleware chain. Ordering,
// outermost first (see docs/PROVIDERS.md for the rationale):
//
//	tracing -> metrics -> retry -> provider
func NewStack(p Provider, cfg StackConfig) Provider {
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock()
	}
	var mws []Middleware
	if cfg.Trace != nil {
		mws = append(mws, NewTracing(clock, cfg.Trace))
	}
	if cfg.Metrics != nil {
		mws = append(mws, cfg.Metrics)
	}
	if cfg.Attempts > 1 {
		mws = append(mws, NewRetry(clock, cfg.Attempts, retryBase, retryCap, 0))
	}
	return Chain(p, mws...)
}

// BuildConfig carries everything New may need: the middleware stack
// knobs and, for the flaky provider, the fault profile.
type BuildConfig struct {
	Stack StackConfig
	Flaky FlakyConfig
}

// Names lists the built-in providers, sorted.
func Names() []string { return []string{"flaky", "offline"} }

// New builds the named provider for model, wrapped in the configured
// middleware stack: "offline" is the calibrated deterministic model,
// "flaky" is seeded fault injection over it.
func New(name string, model *llm.Profile, cfg BuildConfig) (Provider, error) {
	switch name {
	case "offline":
		return NewStack(NewOffline(model), cfg.Stack), nil
	case "flaky":
		return NewStack(NewFlaky(NewOffline(model), cfg.Flaky), cfg.Stack), nil
	}
	return nil, fmt.Errorf("unknown provider %q (have: %s)", name, strings.Join(Names(), ", "))
}
