package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

// seedCheckpoint drives a fresh machine for prob the given number of
// states in under cfg and stores the boundary checkpoint as job's,
// exactly what a killed invocation leaves behind.
func seedCheckpoint(t *testing.T, cache *runner.Cache, job runner.Job, cfg core.Config, prob *bench.Problem, states int) {
	t.Helper()
	m := core.New(cfg).NewMachine(prob)
	for i := 0; i < states; i++ {
		if done, err := m.Step(context.Background()); err != nil || done {
			t.Fatalf("pre-seed step %d: done=%v err=%v", i, done, err)
		}
	}
	cp, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Checkpoints(job).Store(cp); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointedSweepMatchesPlain: running every cell through the
// checkpointed state machine must not change a single outcome relative
// to the monolithic path, must write checkpoints along the way, and
// must leave none behind on success.
func TestCheckpointedSweepMatchesPlain(t *testing.T) {
	problems := sampleProblems(20)
	model := llm.ProfileByName("claude-3.5-sonnet")
	want := Run(model, edatool.Verilog, Options{Problems: problems})

	cache := mustCache(t)
	r := &runner.Runner{Cache: cache}
	got := Run(model, edatool.Verilog, Options{Problems: problems, Runner: r})
	if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
		t.Fatal("checkpointed sweep outcomes diverged from plain sweep")
	}
	st := r.Stats()
	if st.CheckpointsWritten == 0 {
		t.Error("checkpointed sweep wrote no checkpoints")
	}
	if st.JobsResumed != 0 || st.StatesReplayed != 0 {
		t.Errorf("cold sweep claims resumes: %+v", st)
	}
	cfg := core.DefaultConfig(model, edatool.Verilog)
	for _, p := range problems {
		job := runner.Job{Problem: p.ID, Model: model.Name(),
			Language: edatool.Verilog.String(), Config: cfg.Fingerprint()}
		if cache.Checkpoints(job).Load() != nil {
			t.Errorf("completed cell %s left its checkpoint behind", p.ID)
		}
	}
}

// TestCheckpointedSweepResumesPreseededCell: a checkpoint left mid-run
// (as a crashed invocation would) is picked up by the next sweep — the
// resume counters fire and the resumed cell's outcome is identical to
// an uninterrupted evaluation.
func TestCheckpointedSweepResumesPreseededCell(t *testing.T) {
	problems := sampleProblems(24)
	model := llm.ProfileByName("claude-3.5-sonnet")
	lang := edatool.Verilog
	want := Run(model, lang, Options{Problems: problems})

	cache := mustCache(t)
	target := problems[0]
	cfg := core.DefaultConfig(model, lang)
	job := runner.Job{Problem: target.ID, Model: model.Name(),
		Language: lang.String(), Config: cfg.Fingerprint()}

	// Simulate the crash: a checkpoint two states in.
	seedCheckpoint(t, cache, job, cfg, target, 2)

	r := &runner.Runner{Cache: cache}
	got := Run(model, lang, Options{Problems: problems, Runner: r})
	st := r.Stats()
	if st.JobsResumed != 1 {
		t.Errorf("JobsResumed = %d, want 1", st.JobsResumed)
	}
	if st.StatesReplayed == 0 {
		t.Error("resumed cell replayed no states")
	}
	if st.CheckpointsWritten == 0 {
		t.Error("no checkpoints written")
	}
	if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
		t.Fatal("sweep with a resumed cell diverged from the uninterrupted sweep")
	}
	if cache.Checkpoints(job).Load() != nil {
		t.Error("resumed cell left its checkpoint behind after completing")
	}
}

// TestCheckpointIgnoredWithoutCache: a runner without a cache writes no
// checkpoints and changes no outcome.
func TestCheckpointIgnoredWithoutCache(t *testing.T) {
	problems := sampleProblems(40)
	model := llm.ProfileByName("gpt-4o")
	want := Run(model, edatool.Verilog, Options{Problems: problems})
	r := &runner.Runner{}
	got := Run(model, edatool.Verilog, Options{Problems: problems, Runner: r})
	if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
		t.Fatal("Checkpoint without cache changed outcomes")
	}
	if st := r.Stats(); st.CheckpointsWritten != 0 {
		t.Errorf("checkpoints written without a cache: %+v", st)
	}
}

// TestCorruptCheckpointIsCleanMiss: a torn checkpoint degrades to a
// fresh run of the cell with the same outcome.
func TestCorruptCheckpointIsCleanMiss(t *testing.T) {
	problems := sampleProblems(32)
	model := llm.ProfileByName("claude-3.5-sonnet")
	lang := edatool.VHDL
	want := Run(model, lang, Options{Problems: problems})

	cache := mustCache(t)
	cfg := core.DefaultConfig(model, lang)
	job := runner.Job{Problem: problems[0].ID, Model: model.Name(),
		Language: lang.String(), Config: cfg.Fingerprint()}
	// A syntactically valid checkpoint for the wrong cell: Restore must
	// reject it and the sweep must fall back to a fresh run.
	seedCheckpoint(t, cache, job, core.DefaultConfig(model, edatool.Verilog), problems[0], 1)

	r := &runner.Runner{Cache: cache}
	got := Run(model, lang, Options{Problems: problems, Runner: r})
	if st := r.Stats(); st.JobsResumed != 0 {
		t.Errorf("mismatched checkpoint was resumed: %+v", st)
	}
	if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
		t.Fatal("rejected checkpoint changed the sweep outcome")
	}
}

// TestInvalidAbortDiscardsCheckpoint: a cell that resumes from its
// checkpoint and then aborts on an invalid request fails the same way
// on every retry, so the sweep must not leave the checkpoint behind
// for the next invocation to resume into the same failure.
func TestInvalidAbortDiscardsCheckpoint(t *testing.T) {
	model := llm.ProfileByName("claude-3.5-sonnet")
	lang := edatool.Verilog
	problems := sampleProblems(24)[:1]
	cache := mustCache(t)

	// Pre-seed the cell two states in, through a healthy flaky
	// provider so the checkpoint matches the failing sweep's identity.
	healthy := flakyOptions(provider.FlakyConfig{Seed: 1}, nil, problems)
	cfg := healthy.effectiveConfig(model, lang)
	job := runner.Job{Problem: problems[0].ID, Model: model.Name(),
		Language: lang.String(), Config: cfg.Fingerprint(), Provider: healthy.Provider}
	seedCheckpoint(t, cache, job, cfg, problems[0], 2)

	r := &runner.Runner{Cache: cache}
	invalid := provider.FlakyConfig{Seed: 1, ErrorRate: 1, Classes: []provider.Class{provider.ClassInvalid}}
	Run(model, lang, flakyOptions(invalid, r, problems))
	st := r.Stats()
	if st.JobsResumed != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want the seeded cell resumed and failed", st)
	}
	if cache.Checkpoints(job).Load() != nil {
		t.Error("invalid abort left its checkpoint behind")
	}
}
