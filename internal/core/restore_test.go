package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
)

// withField returns a checkpoint's JSON with one top-level field set.
func withField(t *testing.T, data []byte, key string, val any) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	v, err := json.Marshal(val)
	if err != nil {
		t.Fatal(err)
	}
	m[key] = v
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsOutOfRangeCounters: a checkpoint whose loop
// counters lie outside the budgets would let a loop run past them (a
// syntax loop resumed at syn_iter -50 ran 6 syntax iterations against
// a budget of 5). Restore must reject it, and Resume must start over
// and reach the uninterrupted result. Counters at the budget restore.
func TestRestoreRejectsOutOfRangeCounters(t *testing.T) {
	model := llm.ProfileByName("llama3-70b")
	lang := edatool.VHDL
	prob := requireProblem(t, "gate_nand")
	cfg := DefaultConfig(model, lang)
	cps, want := collectCheckpoints(t, model, lang, prob)
	var at []byte
	for _, data := range cps {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		if cp.State == StateSyntaxLoop {
			at = data
			break
		}
	}
	if at == nil {
		t.Fatal("the run has no checkpoint in the syntax loop")
	}
	syn, fun := cfg.MaxSyntaxIters, cfg.MaxFuncIters
	for _, tc := range []struct {
		key string
		val int
		ok  bool
	}{
		{"syn_iter", syn + 1, false},
		{"syn_iter", -1, false},
		{"syn_iter", -50, false},
		{"tb_iter", syn + 1, false},
		{"tb_iter", -1, false},
		{"func_iter", fun + 1, false},
		{"func_iter", -1, false},
		{"steps", -1, false},
		{"syn_iter", syn, true},
		{"syn_iter", 0, true},
		{"tb_iter", syn, true},
		{"func_iter", fun, true},
	} {
		data := withField(t, at, tc.key, tc.val)
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		_, err := New(cfg).Restore(&cp, prob)
		if (err == nil) != tc.ok {
			t.Errorf("%s %d: Restore error %v, want accepted %v", tc.key, tc.val, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		m, resumed := New(cfg).Resume(prob, &memStore{data: data})
		if resumed || m.Steps() != 0 {
			t.Fatalf("%s %d: resumed %v at step %d, want a fresh start", tc.key, tc.val, resumed, m.Steps())
		}
		got, err := m.RunCheckpointed(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, got, want)
	}
}

// maxFuzzSteps bounds the steps a restored machine may take to finish.
// A whole run under the default budgets takes at most about 50.
const maxFuzzSteps = 200

// FuzzCheckpointRestore decodes arbitrary bytes as a checkpoint and
// restores it into a pipeline of the model, HDL and configuration it
// names. Nothing may panic. A checkpoint Restore accepts must hold
// every loop counter within its budget, and the machine it restores
// must finish within maxFuzzSteps steps.
func FuzzCheckpointRestore(f *testing.F) {
	suite := bench.NewSuite()
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		model := llm.ProfileByName(cp.Model)
		if model == nil {
			model = llm.Profiles()[0]
		}
		lang := edatool.Verilog
		if cp.Language == edatool.VHDL.String() {
			lang = edatool.VHDL
		}
		cfg := DefaultConfig(model, lang)
		cfg.FreezeTestbench = cp.Config == cfg.Fingerprint()
		m, err := New(cfg).Restore(&cp, suite.ByID(cp.Problem))
		if err != nil {
			return
		}
		pos := m.pos
		if pos.Steps < 0 || pos.TBIter < 0 || pos.TBIter > cfg.MaxSyntaxIters ||
			pos.SynIter < 0 || pos.SynIter > cfg.MaxSyntaxIters ||
			pos.FuncIter < 0 || pos.FuncIter > cfg.MaxFuncIters {
			t.Fatalf("Restore accepted counters out of range: %+v", pos)
		}
		for i := 0; i < maxFuzzSteps; i++ {
			if done, err := m.Step(context.Background()); done || err != nil {
				return
			}
		}
		t.Fatalf("restored machine still running after %d steps (state %s)", maxFuzzSteps, m.State())
	})
}
