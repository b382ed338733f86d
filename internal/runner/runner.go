// Package runner is the experiment orchestration layer: it turns a
// sweep of independent pipeline evaluations into addressable Jobs and
// executes them on a worker pool with a content-addressed on-disk
// result cache and streaming progress.
//
// A Job is keyed by a hash of (problem ID, model, language, config
// fingerprint), so the same cell always lands in the same cache file
// no matter which invocation runs it. That makes two workflows cheap
// that the in-memory sweep could not support:
//
//   - resuming a crashed sweep (completed cells are cache hits), and
//   - re-running a report without recomputing identical cells.
//
// The package is deliberately independent of the experiment types: the
// executor is generic over the payload, and the cache stores payloads
// as JSON. internal/exp submits its per-problem evaluations through
// Execute; cmd/benchsuite wires the flags.
package runner

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// Status classifies how a job's result was obtained.
type Status int

// Job result statuses.
const (
	// Executed means the job ran on this invocation's worker pool.
	Executed Status = iota
	// Cached means the result was loaded from the on-disk cache.
	Cached
	// Failed means the job ran and returned an error.
	Failed
)

func (s Status) String() string {
	switch s {
	case Executed:
		return "run"
	case Cached:
		return "hit"
	default:
		return "fail"
	}
}

// Result pairs a job with its outcome. Value is meaningful only for
// Executed and Cached results.
type Result[T any] struct {
	Job     Job
	Value   T
	Status  Status
	Err     error
	Elapsed time.Duration
}

// Stats aggregates runner activity, accumulated across every Execute
// call on the same Runner (a benchsuite invocation runs many sweeps
// through one Runner). It backs the run manifest in internal/report.
type Stats struct {
	Total       int           // jobs submitted
	Executed    int           // computed on this invocation
	CacheHits   int           // loaded from the result cache
	Failed      int           // executed but returned an error
	StoreErrors int           // results that could not be written to the cache
	Wall        time.Duration // wall-clock spent inside Execute
	// Remote labels the job service executed cells were dispatched to
	// ("" = cells ran in-process). Cache hits still resolve locally;
	// only misses travel to the service.
	Remote string

	// Resume telemetry, reported by checkpoint-aware executors (the
	// state-machine pipeline): checkpoints persisted, jobs that resumed
	// from a checkpoint instead of starting over, and pipeline states
	// executed after those resumes.
	CheckpointsWritten int
	JobsResumed        int
	StatesReplayed     int

	// Elaboration-cache telemetry, reported by executors that run
	// simulations through a shared edatool.DesignCache: whole-design
	// reuse (parse+elaborate skipped entirely) and per-unit parse
	// reuse (unchanged units of a changed design).
	ElabDesignHits   int
	ElabDesignMisses int
	ElabParseHits    int
	ElabParseMisses  int

	// Backend accumulates simulation execution-backend telemetry from
	// executors that run simulations: how many processes/assignments
	// ran on the compiled two-state fast path vs the 4-state
	// interpreter, and how many compiled activations fell back on X/Z
	// (see sim.BackendStats). Performance telemetry only — it never
	// affects job identity or cached results.
	Backend sim.BackendStats
}

// Misses returns the number of jobs this invocation had to compute
// because the cache could not supply them.
func (s Stats) Misses() int { return s.Executed + s.Failed }

// HitRate returns the cache hit fraction over the jobs that had a
// result (hits + misses), in [0,1].
func (s Stats) HitRate() float64 {
	n := s.CacheHits + s.Misses()
	if n == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(n)
}

// Runner executes job sets. The zero value is a valid runner: no
// cache, no progress, auto-sized worker pool.
type Runner struct {
	// Workers caps the number of concurrently executing jobs.
	// Values <= 0 select min(NumCPU, 8).
	Workers int
	// Cache, when non-nil, is consulted before executing a job and
	// updated after; it is what makes sweeps resumable.
	Cache *Cache
	// Refresh forces every job to recompute and overwrite its cache
	// entry (-resume=false).
	Refresh bool
	// Progress, when non-nil, receives one event per completed job.
	Progress *Progress
	// Remote, when non-empty, labels the job service this invocation
	// dispatches cache misses to (reporting only; the dispatch itself
	// is the caller's execute function).
	Remote string

	mu    sync.Mutex
	stats Stats
}

// Stats returns a snapshot of the accumulated counters.
func (r *Runner) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Remote = r.Remote
	return st
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	w := runtime.NumCPU()
	if w > 8 {
		w = 8
	}
	return w
}

func (r *Runner) record(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// AddResume accumulates checkpoint/resume telemetry from a
// checkpoint-aware job executor (goroutine-safe; jobs report from the
// worker pool).
func (r *Runner) AddResume(checkpointsWritten, jobsResumed, statesReplayed int) {
	r.record(func(s *Stats) {
		s.CheckpointsWritten += checkpointsWritten
		s.JobsResumed += jobsResumed
		s.StatesReplayed += statesReplayed
	})
}

// AddElab accumulates elaboration-cache telemetry from executors that
// simulate through a shared design cache (goroutine-safe).
func (r *Runner) AddElab(designHits, designMisses, parseHits, parseMisses int) {
	r.record(func(s *Stats) {
		s.ElabDesignHits += designHits
		s.ElabDesignMisses += designMisses
		s.ElabParseHits += parseHits
		s.ElabParseMisses += parseMisses
	})
}

// AddBackend accumulates simulation-backend telemetry from executors
// that run simulations (goroutine-safe).
func (r *Runner) AddBackend(b sim.BackendStats) {
	r.record(func(s *Stats) { s.Backend.Add(b) })
}

// Execute runs every job through fn on the runner's worker pool and
// returns results in job order. fn receives the job's index in the
// input slice alongside the job itself, so callers can recover the
// richer objects the job was derived from.
//
// Each job is served from the cache (unless Refresh is set) or
// executed, and a freshly executed result is written back to the
// cache. Execute is itself goroutine-safe, but sequential calls are
// the intended use.
func Execute[T any](r *Runner, jobs []Job, fn func(i int, job Job) (T, error)) []Result[T] {
	start := time.Now()
	results := make([]Result[T], len(jobs))
	if r.Progress != nil {
		r.Progress.Begin(len(jobs))
	}
	r.record(func(s *Stats) { s.Total += len(jobs) })

	var wg sync.WaitGroup
	sem := make(chan struct{}, r.workers())
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = executeOne(r, i, job, fn)
			if r.Progress != nil {
				r.Progress.Done(results[i].Job, results[i].Status, results[i].Elapsed)
			}
		}(i, job)
	}
	wg.Wait()
	r.record(func(s *Stats) { s.Wall += time.Since(start) })
	return results
}

func executeOne[T any](r *Runner, i int, job Job, fn func(int, Job) (T, error)) Result[T] {
	res := Result[T]{Job: job}
	if r.Cache != nil && !r.Refresh {
		ok, err := r.Cache.Load(job, &res.Value)
		if err == nil && ok {
			res.Status = Cached
			r.record(func(s *Stats) { s.CacheHits++ })
			return res
		}
	}

	t0 := time.Now()
	v, err := fn(i, job)
	res.Elapsed = time.Since(t0)
	if err != nil {
		res.Status = Failed
		res.Err = err
		r.record(func(s *Stats) { s.Failed++ })
		return res
	}
	res.Value = v
	res.Status = Executed
	r.record(func(s *Stats) { s.Executed++ })
	if r.Cache != nil {
		// A failed write must not fail the sweep — the result is in
		// memory and only resumability degrades — but it must be
		// visible, or a broken cache directory silently costs the
		// whole sweep again on the next run.
		if err := r.Cache.Store(job, v); err != nil {
			r.record(func(s *Stats) { s.StoreErrors++ })
		}
	}
	return res
}
