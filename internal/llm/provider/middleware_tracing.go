package provider

import (
	"context"
	"fmt"
)

// Tracing emits one transcript line per LLM call through the same
// func(stage, detail string) hook the pipeline already uses for agent
// traces, so provider activity interleaves with the existing
// transcript. With a nil hook the middleware vanishes: Wrap returns
// next unchanged and the call path pays nothing.
type Tracing struct {
	clock Clock
	hook  func(stage, detail string)
}

// NewTracing returns a tracing middleware feeding hook (stage "llm").
func NewTracing(clock Clock, hook func(stage, detail string)) *Tracing {
	return &Tracing{clock: clock, hook: hook}
}

// Wrap implements Middleware.
func (t *Tracing) Wrap(next DoFunc) DoFunc {
	if t.hook == nil {
		return next
	}
	return func(ctx context.Context, req *Request) (Response, error) {
		start := t.clock.Now()
		resp, err := next(ctx, req)
		wall := t.clock.Now().Sub(start)
		if err != nil {
			t.hook("llm", fmt.Sprintf("%s failed (%s) after %s: %v",
				req.Op, ClassOf(err), wall, err))
		} else {
			t.hook("llm", fmt.Sprintf("%s ok: %d bytes, modelled %.2fs, wall %s",
				req.Op, len(resp.Code), resp.Latency, wall))
		}
		return resp, err
	}
}
