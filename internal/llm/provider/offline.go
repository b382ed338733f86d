package provider

import (
	"context"
	"errors"

	"repro/internal/llm"
)

var errUnknownOp = errors.New("unknown op")

// Offline re-homes the calibrated deterministic llm.Profile as the
// default provider. Calls are synchronous, never fail, and consume the
// session's seeded RNG in exactly the order the seed pipeline did, so
// results — and therefore experiment cache keys — are byte-for-byte
// identical with or without the middleware stack around it.
type Offline struct {
	model *llm.Profile
}

// NewOffline wraps a calibrated model profile.
func NewOffline(model *llm.Profile) *Offline { return &Offline{model: model} }

// Name implements Provider.
func (o *Offline) Name() string { return "offline" }

// ModelName implements Provider.
func (o *Offline) ModelName() string { return o.model.Name() }

// NewSession implements Provider.
func (o *Offline) NewSession(req llm.GenRequest) (Session, error) {
	return &offlineSession{o.model.NewSession(req)}, nil
}

// offlineSession serves the request-shaped calls from the simulated
// conversation. Snapshot and Restore come from it unchanged: the
// calibrated model's sessions carry their full conversation state (RNG
// position, active defect sets), so checkpointed pipeline runs restore
// to the exact defect stream an uninterrupted run would have consumed.
type offlineSession struct {
	llm.Session
}

// Do implements Session by dispatching onto the simulated
// conversation. A pre-cancelled context is honoured before any RNG is
// consumed, so cancellation can never desynchronise the deterministic
// defect stream.
func (s *offlineSession) Do(ctx context.Context, req *Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	switch req.Op {
	case OpGenerateTestbench:
		code, lat := s.GenerateTestbench()
		return Response{Code: code, Latency: lat}, nil
	case OpGenerateRTL:
		code, lat := s.GenerateRTL(req.Feedback)
		return Response{Code: code, Latency: lat}, nil
	case OpRepairTestbench:
		code, lat := s.RepairTestbench(req.Feedback)
		return Response{Code: code, Latency: lat}, nil
	case OpAnalysis:
		return Response{Latency: s.AnalysisLatency(req.Kind, req.Items)}, nil
	}
	return Response{}, &Error{Class: ClassInvalid, Op: req.Op, Provider: "offline", Err: errUnknownOp}
}
