// Command benchsuite runs the full AIVRIL 2 evaluation and regenerates
// the paper's tables and figures:
//
//	benchsuite -table1      pass-rate summary (Table 1)
//	benchsuite -fig3        latency breakdown (Figure 3)
//	benchsuite -table2      state-of-the-art comparison (Table 2)
//	benchsuite -ablation    testbench-first vs co-generation (E4)
//	benchsuite -sweep       iteration budget sweep (E5)
//	benchsuite -all         everything
//
// Use -every N to subsample the suite (N>1 keeps runs quick).
//
// Orchestration flags (see internal/runner):
//
//	-cache-dir d   persist one JSON result per evaluated cell under d;
//	               later runs skip completed cells, so a crashed sweep
//	               resumes where it died and re-renders are near-free
//	-resume=false  recompute every cell and overwrite its cache entry
//	               (default true: reuse what the cache holds)
//	-server url    dispatch cache-miss cells to an aivrild job service
//	-progress      stream per-cell outcomes with a cache-hit rate and ETA
//	               to stderr
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

func main() {
	var (
		table1     = flag.Bool("table1", false, "regenerate Table 1")
		fig3       = flag.Bool("fig3", false, "regenerate Figure 3")
		table2     = flag.Bool("table2", false, "regenerate Table 2")
		ablation   = flag.Bool("ablation", false, "run the E4 ablation")
		sweep      = flag.Bool("sweep", false, "run the E5 iteration sweep")
		all        = flag.Bool("all", false, "run everything")
		categories = flag.Bool("categories", false, "per-category breakdown (Claude, Verilog)")
		jsonOut    = flag.String("json", "", "also write raw summaries as JSON to this file")
		every      = flag.Int("every", 1, "evaluate every N-th problem (subsampling)")
		workers    = flag.Int("workers", 0, "max parallel problems (0 = auto)")
		cacheDir   = flag.String("cache-dir", "", "on-disk result cache directory (enables resume)")
		resume     = flag.Bool("resume", true, "reuse cached cells; -resume=false recomputes and overwrites")
		progress   = flag.Bool("progress", false, "stream per-cell progress and ETA to stderr")
		server     = flag.String("server", "", "dispatch cache-miss cells to an aivrild job service at this base URL (results land in the shared cache cells an in-process run would use)")

		providerName = flag.String("provider", "offline",
			"LLM provider: "+strings.Join(provider.Names(), " | ")+
				" (non-default providers occupy their own cache cells)")
		flakyRate = flag.Float64("flaky-error-rate", 0.25, "flaky provider: per-call injected error probability")
		flakySeed = flag.Int64("flaky-seed", 1, "flaky provider: fault RNG seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: unexpected argument %q (flags take no positional arguments)\n", flag.Arg(0))
		os.Exit(2)
	}
	if !slices.Contains(provider.Names(), *providerName) {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown provider %q (have: %s)\n",
			*providerName, strings.Join(provider.Names(), ", "))
		os.Exit(2)
	}
	if !*table1 && !*fig3 && !*table2 && !*ablation && !*sweep && !*categories && !*all {
		flag.Usage()
		os.Exit(2)
	}
	run := &runner.Runner{Workers: *workers, Refresh: !*resume}
	if *cacheDir != "" {
		var err error
		if run.Cache, err = runner.OpenCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: opening cache: %v\n", err)
			os.Exit(1)
		}
	}
	if *progress {
		run.Progress = runner.NewProgress(os.Stderr)
	}

	suite := bench.NewSuite()
	problems := suite.Problems
	if *every > 1 {
		var sub []*bench.Problem
		for i, p := range problems {
			if i%*every == 0 {
				sub = append(sub, p)
			}
		}
		problems = sub
	}
	fmt.Printf("Benchmark suite: %d problems (%d categories)\n", len(problems), len(suite.Categories()))
	fmt.Printf("LLM provider: %s\n\n", *providerName)

	// One design cache for every sweep in this invocation: a Table 1 run
	// followed by the ablation re-simulates many identical (problem, RTL)
	// pairs, and the cache turns those into memoized-result lookups.
	opts := exp.Options{
		Problems:    problems,
		Runner:      run,
		DesignCache: edatool.NewDesignCache(),
		Provider:    *providerName,
		ProviderConfig: provider.BuildConfig{
			Stack: provider.DefaultStackConfig(),
			Flaky: provider.FlakyConfig{Seed: *flakySeed, ErrorRate: *flakyRate},
		},
	}

	if *server != "" {
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		var ccfg client.Config
		if *progress {
			// Live per-job transcript lines from the service's event
			// stream, alongside the runner's own per-cell progress.
			ccfg.OnEvent = func(id string, ev serve.Event) {
				fmt.Fprintf(os.Stderr, "benchsuite: job %.8s %s: %s\n", id, ev.Stage, ev.Detail)
			}
		}
		cl, err := client.New(*server, ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(2)
		}
		if err := cl.Health(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: job service %s not healthy: %v\n", *server, err)
			os.Exit(1)
		}
		// Dispatched cells are network-bound, not CPU-bound: raise the
		// default in-flight window so the service's worker pool, not this
		// process's core count, sets the sweep's parallelism.
		if run.Workers <= 0 {
			run.Workers = 8
		}
		run.Remote = *server
		opts.Dispatch = func(job runner.Job, cell exp.RemoteCell) (exp.ProblemOutcome, error) {
			return cl.Evaluate(ctx, job, cell)
		}
		fmt.Printf("Dispatch: job service %s\n", *server)
	}

	// Each distinct sweep runs once per invocation: the ablation repeats
	// sweeps Table 1 and Table 2 ran, and the iteration sweep's budget 5
	// is the default configuration. A sweep is its model, HDL and
	// configuration fingerprint; the provider is the invocation's.
	done := map[string]*exp.Summary{}
	sw := func(model *llm.Profile, lang edatool.Language, configure func(*core.Config)) *exp.Summary {
		cfg := core.DefaultConfig(model, lang)
		if configure != nil {
			configure(&cfg)
		}
		key := model.Name() + "/" + lang.String() + "/" + cfg.Fingerprint()
		if done[key] == nil {
			o := opts
			o.Configure = configure
			done[key] = exp.Run(model, lang, o)
		}
		return done[key]
	}
	var matrix []*exp.Summary
	needMatrix := *table1 || *fig3 || *table2 || *categories || *all
	if needMatrix {
		for _, model := range llm.Profiles() {
			for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
				matrix = append(matrix, sw(model, lang, nil))
			}
		}
	}
	if *table1 || *all {
		fmt.Println(report.Table1(matrix))
	}
	if *fig3 || *all {
		fmt.Println(report.Fig3(matrix))
	}
	if *table2 || *all {
		fmt.Println(report.Table2(measuredTable2(matrix, sw)))
	}
	if *ablation || *all {
		fmt.Println(runAblation(sw))
	}
	if *sweep || *all {
		fmt.Println(runSweep(sw))
	}
	if *categories || *all {
		for _, s := range matrix {
			if s.Model == "claude-3.5-sonnet" {
				fmt.Println(report.CategoryTable(s))
			}
		}
	}
	if *jsonOut != "" && matrix != nil {
		data, err := json.MarshalIndent(matrix, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: writing JSON: %v\n", err)
		}
	}
	fmt.Println(report.Manifest(run.Stats()))
}

// sweeper runs one sweep of the invocation under a Configure hook.
type sweeper func(model *llm.Profile, lang edatool.Language, configure func(*core.Config)) *exp.Summary

// measuredTable2 derives our measured comparison rows (Verilog only).
func measuredTable2(matrix []*exp.Summary, sw sweeper) []report.Table2Row {
	var rows []report.Table2Row
	for _, s := range matrix {
		if s.Language != edatool.Verilog {
			continue
		}
		_, _, _, loopF := s.Rates()
		rows = append(rows, report.Table2Row{
			Technology: "AIVRIL2 (" + s.Model + ")",
			License:    s.License,
			PassAt1F:   loopF,
			Measured:   true,
		})
	}
	// Co-generation comparator on the strongest profile (AIVRIL1-like).
	claude := llm.ProfileByName("claude-3.5-sonnet")
	for _, c := range baseline.Comparators() {
		_, _, _, loopF := sw(claude, edatool.Verilog, c.Configure).Rates()
		rows = append(rows, report.Table2Row{
			Technology: c.Name + " (claude-3.5-sonnet)",
			License:    "Closed Source",
			PassAt1F:   loopF,
			Measured:   true,
		})
	}
	return rows
}

func runAblation(sw sweeper) string {
	claude := llm.ProfileByName("claude-3.5-sonnet")
	rows := map[string]*exp.Summary{}
	rows["aivril2 (tb frozen)"] = sw(claude, edatool.Verilog, nil)
	for _, c := range baseline.Comparators() {
		rows[c.Name] = sw(claude, edatool.Verilog, c.Configure)
	}
	return report.Ablation(rows)
}

func runSweep(sw sweeper) string {
	claude := llm.ProfileByName("claude-3.5-sonnet")
	budgets := []int{1, 2, 3, 5, 8}
	var sums []*exp.Summary
	for _, b := range budgets {
		sums = append(sums, sw(claude, edatool.Verilog, func(c *core.Config) {
			c.MaxSyntaxIters = b
			c.MaxFuncIters = b
		}))
	}
	return report.IterSweep(budgets, sums)
}
