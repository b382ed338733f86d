// Command aivrild is the crash-safe pipeline job service: an HTTP
// daemon that accepts generation jobs, runs them through the
// checkpointed state machine on a bounded worker pool, and resumes
// interrupted jobs after a restart — including after SIGKILL.
//
//	aivrild -addr :8080 -cache-dir /var/lib/aivril
//
//	curl -XPOST localhost:8080/jobs \
//	  -d '{"problem":"fsm_shift_ena","model":"claude-3.5-sonnet","language":"verilog"}'
//	curl localhost:8080/jobs/<id>
//	curl localhost:8080/jobs/<id>/events     # SSE transcript
//	curl localhost:8080/metrics
//
// SIGTERM/SIGINT drain gracefully: in-flight jobs checkpoint and exit
// as interrupted, and the next start resumes them. See docs/SERVICE.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/llm/provider"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheDir  = flag.String("cache-dir", "", "persistence root: job records, results, checkpoints (required)")
		workers   = flag.Int("workers", 2, "job worker pool size")
		queue     = flag.Int("queue", 16, "bounded submission queue depth (full queue answers 429)")
		stepDelay = flag.Duration("step-delay", 0, "artificial pause after each pipeline state (crash-testing aid)")

		flakyRate = flag.Float64("flaky-error-rate", 0.25, "flaky provider: per-call injected error probability")
		flakySeed = flag.Int64("flaky-seed", 1, "flaky provider: fault RNG seed")

		recordTTL = flag.Duration("record-ttl", 0, "garbage-collect terminal job records older than this (0 = keep forever)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight jobs on shutdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "aivrild: unexpected argument %q (flags take no positional arguments)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "aivrild: -cache-dir is required (checkpoints and job state must land somewhere durable)")
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "aivrild: "+format+"\n", args...)
	}
	srv, err := serve.New(serve.Config{
		CacheDir:   *cacheDir,
		Workers:    *workers,
		QueueDepth: *queue,
		Stack:      provider.DefaultStackConfig(),
		Flaky:      provider.FlakyConfig{Seed: *flakySeed, ErrorRate: *flakyRate},
		StepDelay:  *stepDelay,
		RecordTTL:  *recordTTL,
		Logf:       logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aivrild: %v\n", err)
		os.Exit(1)
	}

	httpSrv := serve.NewHTTPServer(*addr, srv.Handler(), serve.DefaultHTTPTimeouts())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logf("listening on %s (providers: %s)", *addr, strings.Join(provider.Names(), ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logf("%s: draining (in-flight jobs checkpoint and resume on next start)", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "aivrild: %v\n", err)
		os.Exit(1)
	}

	// Begin the service drain BEFORE shutting down the HTTP listener:
	// srv.Shutdown closes the shutdown channel that releases connected
	// transcript streams, and httpSrv.Shutdown blocks until every active
	// request (streams included) finishes. The other order burns the full
	// drain timeout whenever a single SSE subscriber is attached.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	httpSrv.Shutdown(ctx)
	select {
	case <-done:
		logf("drained cleanly")
	case <-ctx.Done():
		logf("drain timeout; exiting with jobs still in flight (they resume from checkpoints)")
	}
}
