package agents_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/agents"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// captureFeedback is a middleware that hands every syntax feedback a
// session receives to check.
type captureFeedback struct{ check func(*llm.Feedback) }

func (c captureFeedback) Wrap(next provider.DoFunc) provider.DoFunc {
	return func(ctx context.Context, req *provider.Request) (provider.Response, error) {
		if fb := req.Feedback; fb != nil && fb.Kind == llm.SyntaxFeedback {
			c.check(fb)
		}
		return next(ctx, req)
	}
}

// TestParseCompileLogMatrixOracle runs the whole evaluation matrix and
// checks every compile log the Review Agent turned into a corrective
// prompt against the regexp oracle.
func TestParseCompileLogMatrixOracle(t *testing.T) {
	var mu sync.Mutex
	logs, items := 0, 0
	var bad []string
	check := func(fb *llm.Feedback) {
		want := agents.OracleParseCompileLog(fb.Raw)
		mu.Lock()
		defer mu.Unlock()
		logs++
		items += len(fb.Items)
		if !reflect.DeepEqual(fb.Items, want.Items) && len(bad) < 3 {
			bad = append(bad, fb.Raw)
		}
	}
	exp.Matrix(exp.Options{Configure: func(cfg *core.Config) {
		cfg.Provider = provider.Chain(cfg.Provider, captureFeedback{check})
	}})
	for _, log := range bad {
		t.Errorf("ParseCompileLog disagrees with the regexp oracle on:\n%s", log)
	}
	if logs == 0 || items == 0 {
		t.Fatalf("matrix produced %d syntax feedbacks with %d items; want some of each", logs, items)
	}
	t.Logf("%d compile logs, %d items", logs, items)
}
