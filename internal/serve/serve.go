// Package serve is the crash-safe job service: it exposes the pipeline
// as a long-lived HTTP daemon (cmd/aivrild) that accepts generation
// jobs, fans them onto a bounded worker pool, streams their agent
// transcripts, and — the point of the exercise — survives being killed
// at any moment. Every job runs through the checkpointed state machine
// of internal/core; after each state transition the machine snapshot is
// persisted through the runner cache, so a crashed or drained server
// resumes interrupted jobs on the next start and drives them to the
// same verdict an uninterrupted run would have produced.
//
// See docs/SERVICE.md for the job lifecycle, the checkpoint format and
// the backpressure/resume semantics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

// Job statuses. queued and running are live; interrupted means the job
// holds a checkpoint and will resume on the next server start (or
// resubmission); completed, failed and canceled are terminal.
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusCompleted   = "completed"
	StatusFailed      = "failed"
	StatusCanceled    = "canceled"
	StatusInterrupted = "interrupted"
)

// Spec is the job description, the POST /jobs body: the sweep cell
// type exp.RemoteCell, which client and server share. The alias remains
// because the perfbench module names it.
type Spec = exp.RemoteCell

// Record is one job's full lifecycle state: the API representation and
// the on-disk schema under <cache>/jobs/. IDs are content-addressed
// (the runner job key), so submitting the same spec twice is
// idempotent and a job's result lands in the exact cache cell a
// benchsuite sweep of the same cell would populate.
type Record struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	Status  string    `json:"status"`
	State   string    `json:"state,omitempty"` // last pipeline state reached
	Verdict string    `json:"verdict,omitempty"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`

	Outcome *exp.ProblemOutcome `json:"outcome,omitempty"`

	// Resume telemetry.
	Resumes            int `json:"resumes"`
	CheckpointsWritten int `json:"checkpoints_written"`
	StatesReplayed     int `json:"states_replayed"`
}

// Config parameterises the server.
type Config struct {
	// CacheDir roots all persistence: job records (jobs/), results and
	// checkpoints (the runner cache layout). Required.
	CacheDir string
	// Workers is the job worker pool size (default 2).
	Workers int
	// QueueDepth bounds the submission queue; a full queue answers 429
	// (default 16).
	QueueDepth int
	// Stack is the base middleware configuration for every job's
	// provider; the server installs its own shared metrics sink on top.
	Stack provider.StackConfig
	// Flaky parameterises jobs that select the fault-injecting provider.
	Flaky provider.FlakyConfig
	// StepDelay inserts an artificial pause after every state
	// transition. The offline pipeline completes in milliseconds; the
	// delay gives crash/drain tests (and the CI smoke script) a window
	// to kill the server mid-job.
	StepDelay time.Duration
	// StepHook, when set, runs after each checkpoint write with the job
	// id and the checkpoint. A non-nil return interrupts the job — the
	// in-process stand-in for SIGKILL in crash-resume tests.
	StepHook func(jobID string, cp *core.Checkpoint) error
	// RecordTTL, when positive, garbage-collects terminal job records —
	// completed, failed, canceled — and their leftover checkpoints once
	// a record has gone untouched for the TTL. Interrupted jobs are
	// resumable state, never collected, and result cells are the shared
	// experiment cache, also untouched: an expired job resubmitted later
	// completes instantly from its cell. Swept at startup recovery and
	// on a GCInterval ticker. Zero keeps records forever.
	RecordTTL time.Duration
	// GCInterval overrides the TTL sweep cadence (default RecordTTL/4,
	// clamped to [1s, 1m]).
	GCInterval time.Duration
	// SubmitTimeout bounds reading one submission request body (default
	// 10s) — with the 1 MiB body cap, the slow-drip half of the
	// slowloris defence.
	SubmitTimeout time.Duration
	// Logf receives server lifecycle lines (default: discard).
	Logf func(format string, args ...any)
}

// ErrDraining reports submission to a server that is shutting down.
var ErrDraining = errors.New("serve: draining")

// SpecError marks a job spec the server can never run (HTTP 400).
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

type job struct {
	rec    Record
	hub    *hub
	cancel context.CancelFunc // non-nil while running
}

// Server is the job service. Create with New, serve its Handler, and
// Shutdown to drain.
type Server struct {
	cfg   Config
	suite *bench.Suite
	cache *runner.Cache
	pool  *runner.Pool
	st    *stats
	prov  *provider.Metrics
	// elab is the server-wide design cache, shared by every
	// job (see edatool.DesignCache). It is cache-key-neutral — warm
	// simulations are byte-identical to cold — so job IDs and cached
	// results are unaffected by sharing it across jobs and workers.
	elab *edatool.DesignCache
	// shutdownc closes when Shutdown begins. Long-lived request
	// handlers (the transcript streams) select on it so a drain is
	// never held hostage by a connected subscriber.
	shutdownc chan struct{}
	bg        sync.WaitGroup // background loops (TTL GC)

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
}

// New opens the cache, starts the worker pool, and re-enqueues every
// job a previous process left queued, running, or interrupted — the
// crash-recovery scan. Jobs that were mid-run resume from their last
// checkpoint.
func New(cfg Config) (*Server, error) {
	if cfg.CacheDir == "" {
		return nil, errors.New("serve: Config.CacheDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cache, err := runner.OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.CacheDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		suite:     bench.NewSuite(),
		cache:     cache,
		pool:      runner.NewPool(cfg.Workers, cfg.QueueDepth),
		st:        &stats{},
		prov:      provider.NewMetrics(provider.RealClock()),
		elab:      edatool.NewDesignCache(),
		shutdownc: make(chan struct{}),
		jobs:      map[string]*job{},
	}
	if err := s.recover(); err != nil {
		s.pool.Close()
		return nil, err
	}
	if n := s.gc(time.Now()); n > 0 {
		cfg.Logf("serve: startup GC expired %d terminal job record(s)", n)
	}
	if cfg.RecordTTL > 0 {
		s.bg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// gcInterval derives the TTL sweep cadence.
func (s *Server) gcInterval() time.Duration {
	if s.cfg.GCInterval > 0 {
		return s.cfg.GCInterval
	}
	iv := s.cfg.RecordTTL / 4
	if iv < time.Second {
		iv = time.Second
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// gcLoop sweeps expired terminal records until shutdown.
func (s *Server) gcLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.gcInterval())
	defer t.Stop()
	for {
		select {
		case <-s.shutdownc:
			return
		case now := <-t.C:
			if n := s.gc(now); n > 0 {
				s.cfg.Logf("serve: GC expired %d terminal job record(s)", n)
			}
		}
	}
}

// gc removes terminal job records (and any checkpoint they left
// behind) older than the record TTL. It returns the number expired.
// Record-file removal happens under the lock so a concurrent
// resubmission of the same spec can never have its fresh record
// deleted out from under it.
func (s *Server) gc(now time.Time) int {
	ttl := s.cfg.RecordTTL
	if ttl <= 0 {
		return 0
	}
	s.mu.Lock()
	n := 0
	for id, j := range s.jobs {
		switch j.rec.Status {
		case StatusCompleted, StatusFailed, StatusCanceled:
		default:
			continue // live or resumable: not garbage
		}
		if now.Sub(j.rec.Updated) < ttl {
			continue
		}
		delete(s.jobs, id)
		os.Remove(filepath.Join(s.cfg.CacheDir, "jobs", id+".json"))
		if r, err := s.resolve(j.rec.Spec); err == nil {
			s.cache.Checkpoints(r.rjob).Delete()
		}
		j.hub.close()
		n++
	}
	s.mu.Unlock()
	if n > 0 {
		s.st.expired(n)
	}
	return n
}

// recover loads persisted job records and re-enqueues the unfinished
// ones. A record found in "running" belonged to a process that died
// mid-job; its checkpoint (if any survived) resumes it. The lock is
// held for the whole scan: pool workers start consuming re-enqueued
// jobs immediately, and they must not observe (or mutate) a record the
// scan is still touching.
func (s *Server) recover() error {
	dir := filepath.Join(s.cfg.CacheDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var rec Record
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" {
			continue // torn record: the job is resubmittable, not wedged
		}
		j := &job{rec: rec, hub: newHub()}
		switch rec.Status {
		case StatusQueued, StatusRunning, StatusInterrupted:
			j.rec.Status = StatusQueued
			s.jobs[rec.ID] = j
			id := rec.ID
			if err := s.pool.TrySubmit(func() { s.run(id) }); err != nil {
				// Queue smaller than the backlog: leave the job
				// interrupted; a resubmission re-enqueues it.
				j.rec.Status = StatusInterrupted
			}
			s.persist(j)
			s.cfg.Logf("serve: recovered job %s (%s)", rec.ID, j.rec.Status)
		default:
			j.hub.close()
			s.jobs[rec.ID] = j
		}
	}
	return nil
}

// The bounds on a spec's budgets, so that no job holds a worker without
// end: the simulators' default time limit, and a repair budget well
// above the 8 iterations a sweep uses.
const (
	maxSpecSimTime = 1_000_000
	maxSpecIters   = 32
)

// resolved is a Spec bound to the concrete objects it names.
type resolved struct {
	prob *bench.Problem
	lang edatool.Language
	cfg  core.Config
	tag  string // provider tag for cache keys ("" = offline)
	rjob runner.Job
}

// resolve validates a spec and derives the job identity. The provider
// is NOT built here (it needs per-job trace plumbing); its name is
// checked against provider.Names so submission fails fast.
func (s *Server) resolve(spec Spec) (resolved, error) {
	var r resolved
	r.prob = s.suite.ByID(spec.Problem)
	if r.prob == nil {
		return r, specErrf("unknown problem %q", spec.Problem)
	}
	model := llm.ProfileByName(spec.Model)
	if model == nil {
		return r, specErrf("unknown model %q", spec.Model)
	}
	switch strings.ToLower(spec.Language) {
	case "", "verilog":
		r.lang = edatool.Verilog
	case "vhdl":
		r.lang = edatool.VHDL
	default:
		return r, specErrf("unknown language %q (verilog | vhdl)", spec.Language)
	}
	name := spec.Provider
	if name == "" {
		name = "offline"
	}
	if !slices.Contains(provider.Names(), name) {
		return r, specErrf("unknown provider %q (have: %s)", name, strings.Join(provider.Names(), ", "))
	}
	if name != "offline" {
		r.tag = name
	}
	if spec.MaxSyntaxIters > maxSpecIters || spec.MaxFuncIters > maxSpecIters {
		return r, specErrf("max_syntax_iters and max_func_iters may be at most %d", maxSpecIters)
	}
	if spec.MaxSimTime > maxSpecSimTime {
		return r, specErrf("max_sim_time %d exceeds %d", spec.MaxSimTime, maxSpecSimTime)
	}
	cfg := core.DefaultConfig(model, r.lang)
	cfg.Provider = nil // built per run, with the job's trace plumbing
	spec.Configure(&cfg)
	r.cfg = cfg
	r.rjob = runner.Job{
		Problem:  r.prob.ID,
		Model:    model.Name(),
		Language: r.lang.String(),
		Config:   cfg.Fingerprint(),
		Provider: r.tag,
	}
	return r, nil
}

// Submit validates, registers and enqueues a job. It is idempotent:
// resubmitting a live or completed job returns its current record;
// resubmitting a failed, canceled or interrupted job re-enqueues it
// (resuming from its checkpoint when one exists). The bounded queue
// rejects with runner.ErrQueueFull — the HTTP layer's 429.
func (s *Server) Submit(spec Spec) (Record, error) {
	r, err := s.resolve(spec)
	if err != nil {
		return Record{}, err
	}
	id := r.rjob.Key()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Record{}, ErrDraining
	}
	j := s.jobs[id]
	if j != nil {
		switch j.rec.Status {
		case StatusQueued, StatusRunning, StatusCompleted:
			return j.rec, nil
		}
		// failed / canceled / interrupted: re-enqueue below.
	} else {
		j = &job{
			rec: Record{ID: id, Spec: spec, Created: time.Now()},
			hub: newHub(),
		}
	}
	prev := j.rec.Status
	j.rec.Status = StatusQueued
	j.rec.Error = ""
	if err := s.pool.TrySubmit(func() { s.run(id) }); err != nil {
		j.rec.Status = prev
		return Record{}, err
	}
	if j.hub.closed() {
		j.hub = newHub() // fresh event stream for the re-run
	}
	s.jobs[id] = j
	s.persist(j)
	j.hub.publish("job", "queued")
	return j.rec, nil
}

// Get returns a job's record.
func (s *Server) Get(id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Record{}, false
	}
	return j.rec, true
}

// List returns every job record, newest first (ties by ID). The
// records are copied under the lock and sorted after it is released,
// so a long listing never stalls submissions or state updates.
func (s *Server) List() []Record {
	s.mu.Lock()
	out := make([]Record, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.rec)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b Record) int {
		if c := b.Created.Compare(a.Created); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	return out
}

// Cancel stops a job: a queued job is marked canceled before it
// starts, a running job has its context cancelled and finishes as
// canceled. Terminal jobs are left untouched (ok=false).
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.rec.Status {
	case StatusQueued:
		j.rec.Status = StatusCanceled
		s.persist(j)
		j.hub.publish("job", "canceled before start")
		j.hub.close()
		return true
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	}
	return false
}

// Subscribe returns a job's event history and a live feed (see hub).
func (s *Server) Subscribe(id string) ([]Event, <-chan Event, func(), bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, false
	}
	hist, ch, cancel := j.hub.subscribe()
	return hist, ch, cancel, true
}

// QueueDepth returns the number of queued-but-not-started jobs.
func (s *Server) QueueDepth() int { return s.pool.Depth() }

// Shutdown drains the server: no new submissions, running jobs are
// cancelled (they checkpoint at every boundary, so cancellation costs
// at most one in-flight state), every connected transcript stream is
// released via the shutdown channel, and the pool empties. Interrupted
// jobs resume on the next start. Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Closing first: event-stream handlers select on this channel,
		// so a drain completes promptly even with live subscribers
		// attached (they would otherwise pin http.Server.Shutdown for
		// the whole drain timeout).
		close(s.shutdownc)
	}
	for _, j := range s.jobs {
		if j.rec.Status == StatusRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.pool.Close()
	s.bg.Wait()
}

// persist writes a job record atomically (temp file + rename, not
// fsynced). Caller holds s.mu.
func (s *Server) persist(j *job) {
	j.rec.Updated = time.Now()
	data, err := json.MarshalIndent(j.rec, "", " ")
	if err != nil {
		return
	}
	runner.WriteFileAtomic(filepath.Join(s.cfg.CacheDir, "jobs", j.rec.ID+".json"), data, false)
}

// verdictOf reconstructs the pipeline verdict from a cached outcome.
func verdictOf(out exp.ProblemOutcome) string {
	switch {
	case !out.LoopSyntaxOK:
		return "syntax-fail"
	case out.SelfVerified:
		return "pass"
	default:
		return "func-fail"
	}
}

// run executes one job on a pool worker: serve it from the result
// cache if possible, otherwise restore-or-start the state machine and
// drive it state by state, checkpointing after every transition.
func (s *Server) run(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil || j.rec.Status != StatusQueued {
		s.mu.Unlock()
		return // canceled while queued, or stale closure
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.rec.Status = StatusRunning
	s.persist(j)
	spec := j.rec.Spec
	hub := j.hub
	s.mu.Unlock()
	defer cancel()
	hub.publish("job", "running")

	r, err := s.resolve(spec)
	if err != nil {
		s.finish(j, func(rec *Record) {
			rec.Status = StatusFailed
			rec.Error = err.Error()
		})
		return
	}

	// A completed cell (this server's earlier life, or a benchsuite
	// sweep over the same cache) short-circuits the run.
	var cached exp.ProblemOutcome
	if ok, _ := s.cache.Load(r.rjob, &cached); ok {
		hub.publish("job", "served from result cache")
		s.finish(j, func(rec *Record) {
			rec.Status = StatusCompleted
			rec.Verdict = verdictOf(cached)
			rec.Outcome = &cached
			rec.State = core.StateDone.String()
		})
		return
	}

	// Build the provider with this job's trace plumbing and the
	// server-wide metrics sink.
	stack := s.cfg.Stack
	stack.Metrics = s.prov
	stack.Trace = func(stage, detail string) { hub.publish(stage, detail) }
	name := spec.Provider
	if name == "" {
		name = "offline"
	}
	model := llm.ProfileByName(spec.Model)
	prov, err := provider.New(name, model, provider.BuildConfig{Stack: stack, Flaky: s.cfg.Flaky})
	if err != nil {
		s.finish(j, func(rec *Record) {
			rec.Status = StatusFailed
			rec.Error = err.Error()
		})
		return
	}
	cfg := r.cfg
	cfg.Provider = prov
	cfg.DesignCache = s.elab
	cfg.Trace = func(stage, detail string) { hub.publish(stage, detail) }

	store := s.cache.Checkpoints(r.rjob)
	m, resumed := core.New(cfg).Resume(r.prob, store)
	if resumed {
		s.st.resumed()
		s.mu.Lock()
		j.rec.Resumes++
		s.mu.Unlock()
	}

	// The per-job work at each state boundary, after the checkpoint
	// write: counters, the crash-test hook, the state event and the
	// step delay. A state's wall time includes its checkpoint write.
	st, t0 := m.State(), time.Now()
	res, herr := m.RunCheckpointed(ctx, store, func(cp *core.Checkpoint) error {
		s.st.observe(st, time.Since(t0))
		if resumed {
			s.st.replayed()
		}
		if cp != nil {
			s.st.checkpointed()
		}
		st = m.State()
		s.mu.Lock()
		if resumed {
			j.rec.StatesReplayed++
		}
		if cp != nil {
			j.rec.CheckpointsWritten++
		}
		j.rec.State = st.String()
		s.mu.Unlock()
		if hook := s.cfg.StepHook; hook != nil && cp != nil {
			if err := hook(id, cp); err != nil {
				return err
			}
		}
		hub.publish("state", st.String())
		if d := s.cfg.StepDelay; d > 0 && st != core.StateDone {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		t0 = time.Now()
		return nil
	})
	if herr != nil {
		// Injected crash: the checkpoint is on disk, the job stays
		// resumable.
		s.finish(j, func(rec *Record) {
			rec.Status = StatusInterrupted
			rec.Error = herr.Error()
		})
		return
	}
	if res.Aborted {
		s.st.observe(st, time.Since(t0))
		s.finishStep(j, m.State(), res)
		return
	}

	out := exp.Outcome(r.prob, r.lang, cfg, r.tag, res)
	if err := s.cache.Store(r.rjob, out); err != nil {
		s.cfg.Logf("serve: job %s: result store failed: %v", id, err)
	}
	hub.publish("job", "completed: "+res.Verdict())
	s.finish(j, func(rec *Record) {
		rec.Status = StatusCompleted
		rec.Verdict = res.Verdict()
		rec.Outcome = &out
	})
}

// finishStep classifies an aborted run into the job's terminal (or
// resumable) status: cancellation during drain and transient provider
// failures leave the job interrupted, a user cancel is canceled, and
// everything else is failed. Whether the checkpoint survives is core's
// policy (Machine.RunCheckpointed), which keeps it in exactly the
// interrupted and canceled cases.
func (s *Server) finishStep(j *job, state core.State, res *core.Result) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	class := provider.ClassOf(res.Err)
	status := StatusFailed
	switch {
	case class == provider.ClassCanceled && draining:
		status = StatusInterrupted
	case class == provider.ClassCanceled:
		status = StatusCanceled
	case provider.ResumableAfter(res.Err):
		status = StatusInterrupted
	}
	j.hub.publish("job", fmt.Sprintf("%s: %s", status, res.Verdict()))
	s.finish(j, func(rec *Record) {
		rec.Status = status
		rec.Verdict = res.Verdict()
		rec.Error = res.Err.Error()
		rec.State = state.String()
	})
}

// finish applies a terminal mutation, persists the record, and closes
// the event stream.
func (s *Server) finish(j *job, mut func(*Record)) {
	s.mu.Lock()
	mut(&j.rec)
	j.cancel = nil
	s.persist(j)
	hub := j.hub
	s.mu.Unlock()
	hub.close()
}
