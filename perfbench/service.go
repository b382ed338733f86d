package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// stateRoot holds the job service's state directories, inside the
// checkout's build directory.
const stateRoot = ".bench_build/perfbench-state"

// service dispatches the repair mix through an in-process job service
// (serve.Server behind serve.NewHTTPServer on loopback) with the typed
// client, as benchsuite -server does. Every pass raises the simulation
// limit by one, which enters the job ID but no outcome, so no measured
// job is a result-cache hit.
type service struct {
	common
	dir    string
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	tr     *countingTransport
	cl     *client.Client
	passNo int

	// Tracing state; rec is nil on untraced runs.
	rec         *recorder
	sweepID     int
	mu          sync.Mutex
	checkpoints int
}

func newService(g *gate, workers int) *service {
	return &service{common: common{gate: g, workers: workers, sweeps: repairSweeps()}}
}

// countingTransport counts 429 answers (backpressure refusals the
// client then retries).
type countingTransport struct {
	base     *http.Transport
	rejected atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		t.rejected.Add(1)
	}
	return resp, err
}

var stateDirs atomic.Int64

func (w *service) setup(ids []string) error {
	w.buildSuite(ids)
	w.dir = filepath.Join(stateRoot, fmt.Sprintf("%d-%d", os.Getpid(), stateDirs.Add(1)))
	srv, err := serve.New(serve.Config{CacheDir: w.dir, Workers: w.workers})
	if err != nil {
		return fmt.Errorf("starting job service: %w", err)
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	w.hs = serve.NewHTTPServer(ln.Addr().String(), srv.Handler(), serve.DefaultHTTPTimeouts())
	w.done = make(chan error, 1)
	go func() { w.done <- w.hs.Serve(ln) }()
	w.tr = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 4 * w.workers}}
	w.cl, err = client.New("http://"+ln.Addr().String(), client.Config{HTTPClient: &http.Client{Transport: w.tr}})
	if err != nil {
		return fmt.Errorf("job service client: %w", err)
	}
	w.warm = w.pass(nil)
	return nil
}

func (w *service) pass(rec *recorder) passResult {
	simTime := uint64(defaultSimTime + w.passNo)
	w.passNo++
	w.rec = rec
	var r passResult
	for _, s := range w.sweeps {
		if rec != nil {
			w.sweepID = rec.begin("exp.sweep", -1, -1)
		}
		sum := exp.Run(s.model, s.lang, exp.Options{
			Problems:   w.sample,
			MaxWorkers: w.workers,
			Configure:  withSimTime(s.configure, simTime),
			Dispatch:   w.dispatch,
		})
		if rec != nil {
			rec.end(w.sweepID)
		}
		r.addSweep(&w.common, sum, s)
	}
	return r
}

func (w *service) dispatch(job runner.Job, cell exp.RemoteCell) (exp.ProblemOutcome, error) {
	t0 := time.Now()
	var out exp.ProblemOutcome
	var err error
	if w.rec == nil {
		out, err = w.cl.Evaluate(context.Background(), job, cell)
	} else {
		out, err = w.traced(job, cell)
	}
	if err == nil {
		w.log.add(time.Since(t0))
	}
	return out, err
}

// traced is client.Evaluate split at its HTTP calls: serve.submit is
// the POST, the job's event stream gives the server-side queue wait and
// run time, and serve.stream is the time from the server's completion
// event until the client holds the verdict.
func (w *service) traced(job runner.Job, cell exp.RemoteCell) (exp.ProblemOutcome, error) {
	ctx := context.Background()
	rec := w.rec
	id := rec.newCell()
	jobSpan := rec.begin("serve.job", w.sweepID, id)
	sub := rec.begin("serve.submit", jobSpan, id)
	r, err := w.cl.Submit(ctx, serve.Spec{
		Problem:        cell.Problem,
		Model:          cell.Model,
		Language:       cell.Language,
		Provider:       cell.Provider,
		MaxSyntaxIters: cell.MaxSyntaxIters,
		MaxFuncIters:   cell.MaxFuncIters,
		MaxSimTime:     cell.MaxSimTime,
		CoGenTestbench: cell.CoGenTestbench,
		SkipFunctional: cell.SkipFunctional,
	})
	rec.end(sub)
	if err != nil {
		return exp.ProblemOutcome{}, err
	}
	if r.ID != job.Key() {
		return exp.ProblemOutcome{}, fmt.Errorf("cell %s: server job ID %s, local key %s", job, r.ID, job.Key())
	}
	var queued, running, completed time.Time
	err = w.cl.Events(ctx, r.ID, func(ev serve.Event) error {
		switch {
		case ev.Stage == "job" && ev.Detail == "queued":
			queued = ev.Time
		case ev.Stage == "job" && ev.Detail == "running":
			running = ev.Time
		case ev.Stage == "job" && strings.HasPrefix(ev.Detail, "completed"):
			completed = ev.Time
		}
		return nil
	})
	if err != nil {
		return exp.ProblemOutcome{}, err
	}
	final, err := w.cl.Await(ctx, r.ID)
	end := time.Now()
	rec.end(jobSpan)
	if err != nil {
		return exp.ProblemOutcome{}, err
	}
	if final.Status != serve.StatusCompleted || final.Outcome == nil {
		return exp.ProblemOutcome{}, fmt.Errorf("cell %s: job %s %s: %s", job, r.ID, final.Status, final.Error)
	}
	if queued.IsZero() || running.IsZero() || completed.IsZero() {
		return exp.ProblemOutcome{}, fmt.Errorf("cell %s: job %s event stream lacks queued/running/completed", job, r.ID)
	}
	rec.add("serve.queue_wait", queued, running, jobSpan, id)
	rec.add("serve.run", running, completed, jobSpan, id)
	rec.add("serve.stream", completed, end, jobSpan, id)
	w.mu.Lock()
	w.checkpoints += final.CheckpointsWritten
	w.mu.Unlock()
	return *final.Outcome, nil
}

// close drains the service, stops the HTTP server, waits for it to
// return and removes the state directory.
func (w *service) close() {
	if w.srv != nil {
		w.srv.Shutdown()
	}
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := w.hs.Shutdown(ctx); err != nil {
			w.hs.Close()
		}
		cancel()
		if err := <-w.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: job service HTTP server: %v\n", err)
		}
	}
	if w.tr != nil {
		w.tr.base.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.srv, w.hs, w.tr, w.dir = nil, nil, nil, ""
}

// fsName names the filesystem holding dir, for the noise report.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// serveMetrics are the per-layer metrics of the service leg.
var serveMetrics = []struct{ name, unit string }{
	{"serve.setup_s", "s"},
	{"serve.cells_per_s", "1/s"},
	{"serve.verdict_p50_ms", "ms"},
	{"serve.verdict_p90_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.checkpoints_per_job", "count"},
}

// serviceLeg measures the job-service layer for the repair-warm traced
// run: it starts an in-process job service on the same seed's sample,
// warms its design cache with one pass of the repair mix, then runs one
// untraced pass (throughput and verdict latency as the client sees
// them) and one traced pass (the serve.* spans).
func serviceLeg(res *result, g *gate, ids []string, workers int, stderr io.Writer) error {
	svc := newService(g, workers)
	defer svc.close()
	t0 := time.Now()
	if err := svc.setup(ids); err != nil {
		return err
	}
	setup := time.Since(t0)
	if err := svc.checkWarm(); err != nil {
		return err
	}
	win := measure(svc, 0, nil)
	rec := newRecorder()
	tw := measure(svc, 0, rec)
	res.Attempted += win.attempted + tw.attempted
	res.Failed += win.failed + tw.failed

	lat := win.lat
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	stats, _ := rec.summarize()
	mean := func(n string) float64 {
		if s := stats[n]; s != nil {
			return float64(s.total) / float64(s.count) / 1e6
		}
		return 0
	}
	svc.mu.Lock()
	ckpts := float64(svc.checkpoints) / float64(tw.attempted)
	svc.mu.Unlock()
	res.set("serve.setup_s", setup.Seconds(), "s")
	res.set("serve.cells_per_s", win.cellsPerSec(), "1/s")
	res.set("serve.verdict_p50_ms", pct(lat, 0.50), "ms")
	res.set("serve.verdict_p90_ms", pct(lat, 0.90), "ms")
	res.set("serve.submit_ms", mean("serve.submit"), "ms")
	res.set("serve.queue_wait_ms", mean("serve.queue_wait"), "ms")
	res.set("serve.run_ms", mean("serve.run"), "ms")
	res.set("serve.stream_ms", mean("serve.stream"), "ms")
	res.set("serve.rejected", float64(svc.tr.rejected.Load()), "count")
	res.set("serve.checkpoints_per_job", ckpts, "count")
	fmt.Fprintf(stderr, "perfbench: service leg: state on %s, setup %.2fs, %d cells untraced in %.2fs\n",
		fsName(svc.dir), setup.Seconds(), win.attempted, win.wall.Seconds())
	printBreakdown(stderr, stats, tw)
	return nil
}
