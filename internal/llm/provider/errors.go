package provider

import (
	"context"
	"errors"
	"fmt"
)

// Class partitions provider failures by how callers should react.
// The classification is the retry contract: middleware never inspects
// concrete error values, only classes.
type Class int

// Error classes.
const (
	// ClassOK is the class of a nil error.
	ClassOK Class = iota
	// ClassRateLimited is a provider-side throttle (HTTP 429 shape).
	// Retryable: the condition clears once the window refills.
	ClassRateLimited
	// ClassUnavailable is a transient provider failure (5xx shape,
	// dropped connection). Retryable.
	ClassUnavailable
	// ClassTimeout is a deadline expiry (context.DeadlineExceeded or a
	// backend's own timeout). Retryable: a fresh attempt may finish in
	// time.
	ClassTimeout
	// ClassCanceled is caller-initiated cancellation. Not retryable:
	// the caller no longer wants the result.
	ClassCanceled
	// ClassInvalid is a malformed or unsupported request. Not
	// retryable: the same request will fail the same way.
	ClassInvalid
	// ClassExhausted wraps the last attempt's error once the retry
	// budget is spent. Not retryable: the budget IS the retry policy.
	ClassExhausted

	numClasses = 7
)

func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassRateLimited:
		return "rate-limited"
	case ClassUnavailable:
		return "unavailable"
	case ClassTimeout:
		return "timeout"
	case ClassCanceled:
		return "canceled"
	case ClassInvalid:
		return "invalid"
	case ClassExhausted:
		return "exhausted"
	}
	return "unknown"
}

// Retryable reports whether a fresh attempt at the same request can
// reasonably succeed.
func (c Class) Retryable() bool {
	switch c {
	case ClassRateLimited, ClassUnavailable, ClassTimeout:
		return true
	}
	return false
}

// Error is the classified provider error every middleware and the
// pipeline consume.
type Error struct {
	Class    Class
	Op       Op
	Provider string // provider name, when known
	Attempts int    // attempts consumed, when a retry wrapper reports
	Err      error  // underlying cause, may be nil
}

func (e *Error) Error() string {
	msg := fmt.Sprintf("llm %s: %s", e.Op, e.Class)
	if e.Provider != "" {
		msg = fmt.Sprintf("llm %s [%s]: %s", e.Op, e.Provider, e.Class)
	}
	if e.Attempts > 0 {
		msg += fmt.Sprintf(" after %d attempt(s)", e.Attempts)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *Error) Unwrap() error { return e.Err }

// ClassOf extracts the class of an arbitrary error: nil is ClassOK,
// context errors map to ClassTimeout/ClassCanceled, a wrapped *Error
// keeps its class, and anything unrecognised is ClassInvalid — an
// unknown failure must not feed a retry loop.
func ClassOf(err error) Class {
	if err == nil {
		return ClassOK
	}
	var pe *Error
	if errors.As(err, &pe) {
		return pe.Class
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	if errors.Is(err, context.Canceled) {
		return ClassCanceled
	}
	return ClassInvalid
}

// Retryable reports whether err's class permits another attempt.
func Retryable(err error) bool { return ClassOf(err).Retryable() }

// ResumableAfter reports whether a pipeline run that aborted on err is
// worth resuming later from its checkpoint. It is the per-state
// retry-vs-abort decision the job service applies: transient classes
// (rate-limited, unavailable, timeout) resume; an exhausted retry
// budget resumes when the attempts it spent were on a transient cause
// (the outage may be over by the time the job is re-queued);
// cancellation and invalid requests do not — the same request would
// fail the same way.
func ResumableAfter(err error) bool {
	class := ClassOf(err)
	if class.Retryable() {
		return true
	}
	if class != ClassExhausted {
		return false
	}
	var pe *Error
	if !errors.As(err, &pe) || pe.Err == nil {
		return true // exhausted with unknown cause: assume transient
	}
	cause := ClassOf(pe.Err)
	return cause.Retryable() || cause == ClassExhausted
}
