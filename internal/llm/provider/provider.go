// Package provider splits the LLM layer behind a production-shaped
// boundary: a Provider mints stateful Sessions whose calls are
// request-shaped (one Do per LLM interaction) and return typed results
// and classified errors. The calibrated deterministic model from
// internal/llm is re-homed here as the default "offline" provider; a
// seeded fault-injecting "flaky" provider exercises the failure paths.
//
// Around any provider, a composable middleware stack supplies retry
// with full jitter for transient failures plus metrics and tracing.
// Every middleware takes an injected Clock, so backoff and wall-clock
// readings are unit-testable with a mock clock and no real sleeps. See
// docs/PROVIDERS.md for the interface contract, the error
// classification and the middleware ordering rules.
package provider

import (
	"context"

	"repro/internal/llm"
)

// Op enumerates the request-shaped LLM calls a session serves. The
// four ops mirror llm.Session: two generation calls, one repair call,
// and the Review/Verification agents' log-analysis call.
type Op int

// Session operations.
const (
	OpGenerateTestbench Op = iota
	OpGenerateRTL
	OpRepairTestbench
	OpAnalysis

	numOps = 4
)

func (o Op) String() string {
	switch o {
	case OpGenerateTestbench:
		return "generate-testbench"
	case OpGenerateRTL:
		return "generate-rtl"
	case OpRepairTestbench:
		return "repair-testbench"
	case OpAnalysis:
		return "analysis"
	}
	return "invalid-op"
}

// Request describes one LLM call within a session. Callers may reuse
// one Request value across calls; middleware must treat it as
// read-only.
type Request struct {
	Op       Op
	Feedback *llm.Feedback    // corrective prompt for OpGenerateRTL / OpRepairTestbench (nil = zero-shot)
	Kind     llm.FeedbackKind // OpAnalysis: which agent is analysing
	Items    int              // OpAnalysis: findings in the analysed log
}

// Response is the typed result of one call. It is returned by value so
// the middleware chain stays allocation-free on the steady-state path.
type Response struct {
	Code    string  // generated artefact (empty for OpAnalysis)
	Latency float64 // modelled API wall-clock, seconds
}

// Session is one stateful conversation: the per-(problem, language)
// context a model keeps across generation and repair turns.
// Implementations must honour ctx cancellation while blocked.
type Session interface {
	Do(ctx context.Context, req *Request) (Response, error)
	// Snapshot serializes the conversation state, and Restore rewinds
	// a fresh session of the same task to it. The pipeline state
	// machine checkpoints runs with them: a restored session continues
	// the conversation exactly where the snapshot left it.
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// Provider mints sessions and identifies itself for reports and cache
// keys.
type Provider interface {
	// Name is the provider name recorded in reports ("offline",
	// "flaky"). It is NOT the model name.
	Name() string
	// ModelName is the underlying model profile the provider serves.
	ModelName() string
	// NewSession opens a conversation for one generation task.
	NewSession(req llm.GenRequest) (Session, error)
}

// DoFunc is the request-shaped call the middleware compose around.
type DoFunc func(ctx context.Context, req *Request) (Response, error)

// Middleware wraps the call path of every session minted by the
// provider it is installed on. One middleware value is shared across
// all sessions (and all worker goroutines) of that provider, so
// stateful middleware — the metrics counters, the retry jitter source —
// aggregates per provider, not per conversation.
type Middleware interface {
	// Wrap returns the wrapped call path. Wrap is invoked once per
	// session; per-call state must live in the returned DoFunc's frame
	// and shared state in the Middleware value itself.
	Wrap(next DoFunc) DoFunc
}

// Chain installs middleware around p. mws[0] is the outermost wrapper:
// a call flows mws[0] -> mws[1] -> ... -> provider session.
func Chain(p Provider, mws ...Middleware) Provider {
	if len(mws) == 0 {
		return p
	}
	return &chained{inner: p, mws: mws}
}

type chained struct {
	inner Provider
	mws   []Middleware
}

func (c *chained) Name() string      { return c.inner.Name() }
func (c *chained) ModelName() string { return c.inner.ModelName() }

func (c *chained) NewSession(req llm.GenRequest) (Session, error) {
	s, err := c.inner.NewSession(req)
	if err != nil {
		return nil, err
	}
	do := s.Do
	for i := len(c.mws) - 1; i >= 0; i-- {
		do = c.mws[i].Wrap(do)
	}
	return doSession{Session: s, do: do}, nil
}

// doSession embeds the wrapped session next to the wrapped call path,
// so checkpointing (Snapshot/Restore) reaches through the middleware
// chain: middleware state is resilience policy, not
// conversation state, and is deliberately not part of a snapshot.
type doSession struct {
	Session
	do DoFunc
}

func (s doSession) Do(ctx context.Context, req *Request) (Response, error) {
	return s.do(ctx, req)
}
