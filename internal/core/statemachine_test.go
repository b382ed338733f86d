package core

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// machineProblems covers the interesting control-flow shapes: a
// trivial pass, a testbench/RTL syntax repair, a multi-iteration
// functional loop, and a functional-budget exhaustion.
var machineProblems = []string{"gate_xor", "gate_or", "vec_xor_w8", "cmp_lt_w4"}

func machineModel(t *testing.T) *llm.Profile {
	t.Helper()
	m := llm.ProfileByName("claude-3.5-sonnet")
	if m == nil {
		t.Fatal("profile missing")
	}
	return m
}

func requireProblem(t *testing.T, id string) *bench.Problem {
	t.Helper()
	p := bench.NewSuite().ByID(id)
	if p == nil {
		t.Fatalf("problem %q missing from suite", id)
	}
	return p
}

// assertSameResult demands field-for-field equality, including exact
// float latencies: resume must be byte-identical, not approximately
// right.
func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Aborted != want.Aborted {
		t.Fatalf("Aborted = %v, want %v (err %v)", got.Aborted, want.Aborted, got.Err)
	}
	if got.BaselineRTL != want.BaselineRTL {
		t.Error("BaselineRTL diverged")
	}
	if got.FinalRTL != want.FinalRTL {
		t.Error("FinalRTL diverged")
	}
	if got.Testbench != want.Testbench {
		t.Error("Testbench diverged")
	}
	if got.SyntaxOK != want.SyntaxOK || got.SelfVerified != want.SelfVerified {
		t.Errorf("flags = (%v,%v), want (%v,%v)", got.SyntaxOK, got.SelfVerified, want.SyntaxOK, want.SelfVerified)
	}
	if got.SyntaxIters != want.SyntaxIters || got.FuncIters != want.FuncIters {
		t.Errorf("iters = (%d,%d), want (%d,%d)", got.SyntaxIters, got.FuncIters, want.SyntaxIters, want.FuncIters)
	}
	if got.Latency != want.Latency {
		t.Errorf("Latency = %+v, want %+v", got.Latency, want.Latency)
	}
	if got.Verdict() != want.Verdict() {
		t.Errorf("Verdict = %q, want %q", got.Verdict(), want.Verdict())
	}
}

// memStore is an in-memory CheckpointStore holding the JSON bytes of
// the last stored checkpoint, as the on-disk store does. With failing
// set every Store fails.
type memStore struct {
	data    []byte
	failing bool
}

func (s *memStore) Load(v any) bool { return s.data != nil && json.Unmarshal(s.data, v) == nil }

func (s *memStore) Store(v any) error {
	if s.failing {
		return errors.New("store: disk full")
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.data = data
	return nil
}

func (s *memStore) Delete() error { s.data = nil; return nil }

// TestMachineMatchesRunContext: driving the state machine with a
// checkpoint store produces the exact result of the monolithic path,
// the per-step hook sees a persisted checkpoint per step, and the
// completed run leaves the store empty.
func TestMachineMatchesRunContext(t *testing.T) {
	model := machineModel(t)
	for _, id := range machineProblems {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			prob := requireProblem(t, id)
			want := New(DefaultConfig(model, lang)).RunContext(context.Background(), prob)

			m := New(DefaultConfig(model, lang)).NewMachine(prob)
			store := &memStore{}
			steps := 0
			got, err := m.RunCheckpointed(context.Background(), store, func(cp *Checkpoint) error {
				steps++
				if cp == nil {
					t.Fatalf("%s/%s: step %d persisted no checkpoint", id, lang, steps)
				}
				if cp.Problem != prob.ID {
					t.Fatalf("checkpoint problem %q", cp.Problem)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%s: RunCheckpointed: %v", id, lang, err)
			}
			if steps != m.Steps() || steps == 0 {
				t.Errorf("%s/%s: hook saw %d checkpoints, machine ran %d steps", id, lang, steps, m.Steps())
			}
			if store.data != nil {
				t.Errorf("%s/%s: completed run left its checkpoint behind", id, lang)
			}
			assertSameResult(t, got, want)
		}
	}
}

// collectCheckpoints runs one problem to completion, returning the
// serialized checkpoint at every step boundary plus the final result.
func collectCheckpoints(t *testing.T, model *llm.Profile, lang edatool.Language, prob *bench.Problem) ([][]byte, *Result) {
	t.Helper()
	m := New(DefaultConfig(model, lang)).NewMachine(prob)
	store := &memStore{}
	var cps [][]byte
	res, err := m.RunCheckpointed(context.Background(), store, func(*Checkpoint) error {
		cps = append(cps, store.data)
		return nil
	})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return cps, res
}

func restoreFromJSON(t *testing.T, p *Pipeline, prob *bench.Problem, data []byte) *Machine {
	t.Helper()
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatalf("checkpoint decode: %v", err)
	}
	m, err := p.Restore(&cp, prob)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return m
}

// TestResumeAtEveryBoundary is the kill-and-resume property: for every
// step boundary of every control-flow shape, a brand-new pipeline
// restored from the JSON checkpoint finishes with the exact result of
// the uninterrupted run. This is what makes SIGKILL safe at any
// instant — whatever step was in flight is replayed from the previous
// boundary and the deterministic session snapshot reproduces it.
func TestResumeAtEveryBoundary(t *testing.T) {
	model := machineModel(t)
	for _, id := range machineProblems {
		prob := requireProblem(t, id)
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			cps, want := collectCheckpoints(t, model, lang, prob)
			for i, data := range cps {
				p2 := New(DefaultConfig(model, lang))
				m2 := restoreFromJSON(t, p2, prob, data)
				got, err := m2.RunCheckpointed(context.Background(), nil, nil)
				if err != nil {
					t.Fatalf("%s/%s boundary %d: %v", id, lang, i, err)
				}
				assertSameResult(t, got, want)
			}
		}
	}
}

// TestCancellationAtEveryBoundary covers the satellite contract:
// cancel the run at every state boundary — during testbench
// generation, inside the syntax loop, inside the functional loop — and
// assert (a) the abort is clean and classified, (b) the checkpoint
// written at the boundary is valid, and (c) resuming from it with a
// live context completes with artefacts identical to an uninterrupted
// run.
func TestCancellationAtEveryBoundary(t *testing.T) {
	model := machineModel(t)
	lang := edatool.Verilog
	for _, id := range machineProblems {
		prob := requireProblem(t, id)
		cps, want := collectCheckpoints(t, model, lang, prob)
		statesSeen := map[State]bool{}
		for i, data := range cps[:len(cps)-1] { // last boundary is Done
			var cp Checkpoint
			if err := json.Unmarshal(data, &cp); err != nil {
				t.Fatal(err)
			}
			statesSeen[cp.State] = true

			// Resume at the boundary under a cancelled context. Steps
			// without LLM calls legitimately complete (cancellation
			// surfaces at provider calls, exactly like the monolithic
			// pipeline); the run must either finish identically or
			// abort cleanly with ClassCanceled at its next LLM call.
			p := New(DefaultConfig(model, lang))
			m := restoreFromJSON(t, p, prob, data)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var err error
			var done bool
			for !done && err == nil {
				done, err = m.Step(ctx)
			}
			if err == nil {
				// Reached the verdict without needing the provider
				// again — the completed result must be the real one.
				assertSameResult(t, m.Result(), want)
			} else {
				if class := provider.ClassOf(err); class != provider.ClassCanceled {
					t.Fatalf("%s boundary %d: abort class %v, want canceled", id, i, class)
				}
				res := m.Abort(err)
				if !res.Aborted || !strings.HasPrefix(res.Verdict(), "aborted(") {
					t.Fatalf("%s boundary %d: abort not classified: %q", id, i, res.Verdict())
				}
			}

			// The checkpoint on disk (the same bytes) is still valid:
			// resume with a live context and finish identically.
			p2 := New(DefaultConfig(model, lang))
			m2 := restoreFromJSON(t, p2, prob, data)
			got, rerr := m2.RunCheckpointed(context.Background(), nil, nil)
			if rerr != nil {
				t.Fatalf("%s boundary %d: resume: %v", id, i, rerr)
			}
			assertSameResult(t, got, want)
		}
		// The sweep must actually have visited the loop states the
		// satellite names, or the test is vacuous.
		if id == "cmp_lt_w4" {
			for _, st := range []State{StateTestbenchSyntax, StateSyntaxLoop, StateFunctionalLoop} {
				if !statesSeen[st] {
					t.Errorf("%s: no boundary in state %s was exercised", id, st)
				}
			}
		}
	}
}

// TestRunCheckpointedStorePolicy pins the one keep-or-discard rule for
// a run's checkpoint. Each case resumes from a checkpoint two steps
// into the run, then ends one way: a checkpoint survives only where a
// later run can still use it.
func TestRunCheckpointedStorePolicy(t *testing.T) {
	model := machineModel(t)
	lang := edatool.Verilog
	prob := requireProblem(t, "cmp_lt_w4")
	errStop := errors.New("stop")
	failing := func(c provider.Class) provider.FlakyConfig {
		return provider.FlakyConfig{Seed: 1, ErrorRate: 1, Classes: []provider.Class{c}}
	}
	cases := []struct {
		name      string
		flaky     provider.FlakyConfig
		cancel    bool
		failStore bool
		afterErr  bool
		wantAbort provider.Class // ClassOK: the run completes
		wantKept  bool
	}{
		{name: "completed", wantKept: false},
		{name: "canceled", cancel: true, wantAbort: provider.ClassCanceled, wantKept: true},
		{name: "exhausted on a transient cause", flaky: failing(provider.ClassUnavailable),
			wantAbort: provider.ClassExhausted, wantKept: true},
		{name: "invalid", flaky: failing(provider.ClassInvalid), wantAbort: provider.ClassInvalid, wantKept: false},
		{name: "after returns an error", afterErr: true, wantKept: true},
		{name: "store write fails", failStore: true, wantKept: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Seed: a healthy run stopped by its hook after two steps
			// leaves the second boundary in the store.
			store := &memStore{}
			seed := New(faultConfig(t, model, lang, provider.FlakyConfig{Seed: 1})).NewMachine(prob)
			n := 0
			if _, err := seed.RunCheckpointed(context.Background(), store, func(*Checkpoint) error {
				if n++; n == 2 {
					return errStop
				}
				return nil
			}); err != errStop || store.data == nil {
				t.Fatalf("seed run: err %v, checkpoint kept %v", err, store.data != nil)
			}
			seeded := string(store.data)

			m, resumed := New(faultConfig(t, model, lang, tc.flaky)).Resume(prob, store)
			if !resumed || m.Steps() != 2 {
				t.Fatalf("Resume: resumed %v at step %d, want step 2", resumed, m.Steps())
			}
			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			defer cancel()
			store.failing = tc.failStore
			hooks, persisted := 0, 0
			res, err := m.RunCheckpointed(ctx, store, func(cp *Checkpoint) error {
				hooks++
				if cp != nil {
					persisted++
				}
				if tc.afterErr {
					return errStop
				}
				return nil
			})
			switch {
			case tc.afterErr:
				if err != errStop || res != nil {
					t.Fatalf("hook error: got (%v, %v), want (nil, stop)", res, err)
				}
				if string(store.data) == seeded {
					t.Error("the boundary before the hook error was not persisted")
				}
			case err != nil:
				t.Fatalf("RunCheckpointed: %v", err)
			case tc.wantAbort == provider.ClassOK && res.Aborted:
				t.Fatalf("run aborted: %v", res.Err)
			case tc.wantAbort != provider.ClassOK && provider.ClassOf(res.Err) != tc.wantAbort:
				t.Fatalf("abort class %v (%v), want %v", provider.ClassOf(res.Err), res.Err, tc.wantAbort)
			}
			if tc.failStore && (hooks == 0 || persisted != 0) {
				t.Errorf("failing store: hook ran %d times and saw %d checkpoints, want nil each time", hooks, persisted)
			}
			if !tc.failStore && persisted != hooks {
				t.Errorf("hook saw %d checkpoints in %d calls", persisted, hooks)
			}
			if kept := store.data != nil; kept != tc.wantKept {
				t.Errorf("checkpoint kept = %v, want %v", kept, tc.wantKept)
			}
		})
	}
}

// TestResumeFallsBackToFresh: Resume restores only a matching
// checkpoint and reports both outcomes of a found one under stage
// "job"; a nil or empty store starts fresh without a word.
func TestResumeFallsBackToFresh(t *testing.T) {
	model := machineModel(t)
	prob := requireProblem(t, "gate_or")
	cps, _ := collectCheckpoints(t, model, edatool.Verilog, prob)
	for _, tc := range []struct {
		name        string
		lang        edatool.Language
		store       CheckpointStore
		wantResumed bool
		wantTrace   string
	}{
		{"nil store", edatool.Verilog, nil, false, ""},
		{"empty store", edatool.Verilog, &memStore{}, false, ""},
		{"matching checkpoint", edatool.Verilog, &memStore{data: cps[1]}, true, "resumed from checkpoint at state "},
		{"mismatched checkpoint", edatool.VHDL, &memStore{data: cps[1]}, false, "checkpoint unusable ("},
		{"unknown state", edatool.Verilog, &memStore{data: withField(t, cps[1], "state", "no-such-state")}, false, "checkpoint unusable (core: unknown machine state"},
	} {
		cfg := DefaultConfig(model, tc.lang)
		var lines []string
		cfg.Trace = func(stage, detail string) {
			if stage == "job" {
				lines = append(lines, detail)
			}
		}
		m, resumed := New(cfg).Resume(prob, tc.store)
		if resumed != tc.wantResumed || (m.Steps() > 0) != tc.wantResumed {
			t.Errorf("%s: resumed %v at step %d, want resumed %v", tc.name, resumed, m.Steps(), tc.wantResumed)
		}
		switch {
		case tc.wantTrace == "" && len(lines) != 0:
			t.Errorf("%s: unexpected job trace %q", tc.name, lines)
		case tc.wantTrace != "" && (len(lines) != 1 || !strings.HasPrefix(lines[0], tc.wantTrace)):
			t.Errorf("%s: job trace %q, want one line starting %q", tc.name, lines, tc.wantTrace)
		}
	}
}

// TestRestoreRejectsMismatches: a checkpoint must only restore into an
// equivalent pipeline.
func TestRestoreRejectsMismatches(t *testing.T) {
	model := machineModel(t)
	prob := requireProblem(t, "gate_or")
	cps, _ := collectCheckpoints(t, model, edatool.Verilog, prob)
	var cp Checkpoint
	if err := json.Unmarshal(cps[2], &cp); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(cp *Checkpoint) (*Pipeline, *bench.Problem)
	}{
		{"wrong problem", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			return New(DefaultConfig(model, edatool.Verilog)), requireProblem(t, "gate_and")
		}},
		{"wrong language", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			return New(DefaultConfig(model, edatool.VHDL)), prob
		}},
		{"wrong config", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			cfg := DefaultConfig(model, edatool.Verilog)
			cfg.MaxFuncIters = 2
			return New(cfg), prob
		}},
		{"wrong model", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			return New(DefaultConfig(llm.ProfileByName("gpt-4o"), edatool.Verilog)), prob
		}},
		{"wrong schema", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			c.Schema = 99
			return New(DefaultConfig(model, edatool.Verilog)), prob
		}},
		{"unknown state", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			c.State = NumStates
			return New(DefaultConfig(model, edatool.Verilog)), prob
		}},
		{"missing session", func(c *Checkpoint) (*Pipeline, *bench.Problem) {
			c.Session = nil
			return New(DefaultConfig(model, edatool.Verilog)), prob
		}},
	}
	for _, tc := range cases {
		c := cp // copy
		p, pr := tc.mut(&c)
		if _, err := p.Restore(&c, pr); err == nil {
			t.Errorf("%s: Restore accepted a mismatched checkpoint", tc.name)
		}
	}
}

// TestStateStringRoundTrip pins the state names (they are the
// checkpoint schema) and their text encoding both ways.
func TestStateStringRoundTrip(t *testing.T) {
	want := []string{"testbench-gen", "testbench-syntax", "zero-shot-rtl",
		"syntax-loop", "functional-loop", "verdict", "done"}
	for i, name := range want {
		st := State(i)
		if st.String() != name {
			t.Errorf("State(%d) = %q, want %q", i, st.String(), name)
		}
		if text, err := st.MarshalText(); err != nil || string(text) != name {
			t.Errorf("State(%d).MarshalText() = %q, %v", i, text, err)
		}
		var parsed State
		if err := parsed.UnmarshalText([]byte(name)); err != nil || parsed != st {
			t.Errorf("UnmarshalText(%q) = %v, %v", name, parsed, err)
		}
	}
	var st State
	if err := st.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("UnmarshalText accepted a bogus name")
	}
	if _, err := NumStates.MarshalText(); err == nil {
		t.Error("MarshalText encoded an invalid state")
	}
}

// TestFingerprintStable pins the config fingerprint format: it is a
// cache-key component minted since the first runner PR, and changing
// it silently orphans every cached sweep.
func TestFingerprintStable(t *testing.T) {
	cfg := Config{MaxSyntaxIters: 5, MaxFuncIters: 3, MaxSimTime: 200_000,
		FreezeTestbench: true, SkipFunctional: false}
	want := "syn5,fun3,sim200000,freeze=true,skipf=false"
	if got := cfg.Fingerprint(); got != want {
		t.Errorf("Fingerprint = %q, want %q", got, want)
	}
}

// TestResumeSiteIndexSnapshotStartsFresh: a checkpoint whose session
// snapshot is in the older site-index form (each defect named by its
// index in the site enumeration, {"kind","desc","marker","site"}, with
// no edit) is unusable. Resume must start over and still reach the
// uninterrupted result, rather than resume with defects that edit
// nothing.
func TestResumeSiteIndexSnapshotStartsFresh(t *testing.T) {
	model := machineModel(t)
	for _, id := range machineProblems {
		prob := requireProblem(t, id)
		cps, want := collectCheckpoints(t, model, edatool.Verilog, prob)
		for i, data := range cps {
			old, ok := siteIndexCheckpoint(t, data)
			if !ok {
				continue
			}
			cfg := DefaultConfig(model, edatool.Verilog)
			var lines []string
			cfg.Trace = func(stage, detail string) {
				if stage == "job" {
					lines = append(lines, detail)
				}
			}
			m, resumed := New(cfg).Resume(prob, &memStore{data: old})
			if resumed || m.Steps() != 0 || len(lines) != 1 || !strings.HasPrefix(lines[0], "checkpoint unusable (") || !strings.Contains(lines[0], "has no edit") {
				t.Fatalf("%s boundary %d: resumed %v at step %d, trace %q", id, i, resumed, m.Steps(), lines)
			}
			got, err := m.RunCheckpointed(context.Background(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, got, want)
			return
		}
	}
	t.Fatal("no checkpoint of the machine problems holds an active RTL defect")
}

// siteIndexCheckpoint rewrites a checkpoint's active RTL defects into
// the site-index form. It reports false when there are none.
func siteIndexCheckpoint(t *testing.T, data []byte) ([]byte, bool) {
	t.Helper()
	var cp Checkpoint
	var sess map[string]json.RawMessage
	var muts []map[string]json.RawMessage
	if err := json.Unmarshal(data, &cp); err != nil || json.Unmarshal(cp.Session, &sess) != nil {
		t.Fatalf("checkpoint decode: %s", data)
	}
	if sess["rtl_muts"] == nil {
		return nil, false
	}
	if err := json.Unmarshal(sess["rtl_muts"], &muts); err != nil {
		t.Fatal(err)
	}
	for i, mut := range muts {
		muts[i] = map[string]json.RawMessage{"kind": mut["kind"], "desc": mut["desc"], "marker": mut["marker"], "site": json.RawMessage(strconv.Itoa(i))}
	}
	var err error
	if sess["rtl_muts"], err = json.Marshal(muts); err != nil {
		t.Fatal(err)
	}
	if cp.Session, err = json.Marshal(sess); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return out, true
}
