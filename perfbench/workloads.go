package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
)

// workload is one benchmark workload. setup builds it over the sampled
// problems, including any warm-up pass; pass runs one unit of measured
// work (traced when rec is non-nil); close releases what setup
// acquired.
type workload interface {
	setup(ids []string) error
	pass(rec *recorder) passResult
	close()
	base() *common
}

// common is the state every workload shares.
type common struct {
	gate    *gate
	workers int
	sweeps  []sweep
	suite   *bench.Suite
	sample  []*bench.Problem
	log     cellLog
	// suiteTime is the bench.NewSuite share of the last setup.
	suiteTime time.Duration
	// warm is the warm-up pass of the last setup, gated once setup's
	// time has been taken.
	warm passResult
}

func (c *common) base() *common { return c }

// buildSuite is the first step of every setup: construct the suite and
// look up the sampled problems in it.
func (c *common) buildSuite(ids []string) {
	t0 := time.Now()
	c.suite = bench.NewSuite()
	c.suiteTime = time.Since(t0)
	c.sample = c.sample[:0]
	for _, id := range ids {
		c.sample = append(c.sample, c.suite.ByID(id))
	}
}

// passResult is what one pass attempted and the summaries it produced,
// kept for the outcome gate.
type passResult struct {
	attempted int
	sweeps    []sweepResult
	cache     edatool.CacheStats // design-cache delta (in-process only)
}

// sweepResult is one exp.Run summary and the sweep that produced it.
type sweepResult struct {
	sum *exp.Summary
	s   sweep
}

func (r *passResult) addSweep(c *common, sum *exp.Summary, s sweep) {
	r.attempted += len(c.sample)
	r.sweeps = append(r.sweeps, sweepResult{sum, s})
}

// check runs the outcome gate over a pass and returns its failed cells.
// It runs outside the timed work: after measure has read its closing
// clock and memory statistics, and after setup's time has been taken.
func (c *common) check(r passResult) int {
	failed := 0
	for _, sr := range r.sweeps {
		failed += c.gate.checkSweep(sr.sum, sr.s.config, c.sample)
	}
	return failed
}

// inproc runs its sweeps through exp in this process: table1-cold
// (cold: a fresh design cache per pass, exp.Matrix) and repair-warm
// (one design cache, filled by a warm-up pass during setup).
type inproc struct {
	common
	cold bool
	x    *localExec
}

func newTable1Cold(g *gate, workers int) *inproc {
	return &inproc{common: common{gate: g, workers: workers, sweeps: table1Sweeps()}, cold: true}
}

func newRepairWarm(g *gate, workers int) *inproc {
	return &inproc{common: common{gate: g, workers: workers, sweeps: repairSweeps()}}
}

func (w *inproc) setup(ids []string) error {
	w.buildSuite(ids)
	w.x = &localExec{suite: w.suite, log: &w.log}
	if !w.cold {
		w.x.cache = edatool.NewDesignCache()
		w.warm = w.pass(nil)
	}
	return nil
}

func (w *inproc) pass(rec *recorder) passResult {
	if w.cold {
		w.x.cache = edatool.NewDesignCache()
	}
	before := w.x.cache.Stats()
	w.x.rec = rec
	// The replay covers the first traced pass.
	w.x.capture = rec != nil && len(w.x.captured) == 0
	opts := exp.Options{
		Problems:    w.sample,
		MaxWorkers:  w.workers,
		DesignCache: w.x.cache,
	}
	if rec != nil {
		// Traced cells run step by step on the benchmark's executor;
		// untraced ones go through exp's own, as benchsuite's do.
		opts.Dispatch = w.x.dispatch
	}
	var r passResult
	if w.cold && rec == nil {
		// The Table-1 unit of work as benchsuite runs it.
		for i, sum := range exp.Matrix(opts) {
			r.addSweep(&w.common, sum, w.sweeps[i])
		}
	} else {
		for _, s := range w.sweeps {
			o := opts
			o.Configure = s.configure
			if rec != nil {
				w.x.sweepID = rec.begin("exp.sweep", -1, -1)
			}
			sum := exp.Run(s.model, s.lang, o)
			if rec != nil {
				rec.end(w.x.sweepID)
			}
			r.addSweep(&w.common, sum, s)
		}
	}
	r.cache = w.x.cache.Stats().Sub(before)
	return r
}

func (w *inproc) close() {}

// window is one measured window: whole passes run back to back until
// the requested duration has elapsed (at least one pass). The outcome
// gate checks every pass once the window has closed.
type window struct {
	passes            int
	passWall          []time.Duration
	attempted, failed int
	wall              time.Duration
	lat               []time.Duration
	busy              time.Duration
	alloc             uint64
	gcCycles          uint32
	gcPause           time.Duration
	cache             edatool.CacheStats
}

func (w window) cellsPerSec() float64 { return float64(w.attempted) / w.wall.Seconds() }

func measure(wl workload, d time.Duration, rec *recorder) window {
	c := wl.base()
	c.log.reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var win window
	var results []passResult
	t0 := time.Now()
	for win.passes == 0 || time.Since(t0) < d {
		p0 := time.Now()
		r := wl.pass(rec)
		win.passWall = append(win.passWall, time.Since(p0))
		win.passes++
		win.attempted += r.attempted
		results = append(results, r)
		win.cache.DesignHits += r.cache.DesignHits
		win.cache.DesignMisses += r.cache.DesignMisses
		win.cache.ParseHits += r.cache.ParseHits
		win.cache.ParseMisses += r.cache.ParseMisses
	}
	win.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	win.alloc = m1.TotalAlloc - m0.TotalAlloc
	win.gcCycles = m1.NumGC - m0.NumGC
	win.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, r := range results {
		win.failed += c.check(r)
	}
	c.log.mu.Lock()
	win.lat = append([]time.Duration(nil), c.log.lat...)
	win.busy = c.log.busy
	c.log.mu.Unlock()
	return win
}

// checkWarm gates the warm-up pass of the last setup (none for cold
// workloads).
func (c *common) checkWarm() error {
	if n := c.check(c.warm); n > 0 {
		return fmt.Errorf("warm-up pass: %d cells failed the outcome gate", n)
	}
	return nil
}
