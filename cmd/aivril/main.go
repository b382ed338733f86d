// Command aivril runs the AIVRIL 2 pipeline on a single benchmark
// problem and prints the full agent transcript, the artefacts, and the
// final verdicts:
//
//	aivril -problem fsm_shift_ena -model claude-3.5-sonnet -lang verilog
//	aivril -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

func main() {
	var (
		problemID = flag.String("problem", "fsm_shift_ena", "benchmark problem id")
		modelName = flag.String("model", "claude-3.5-sonnet", "model profile: claude-3.5-sonnet | gpt-4o | llama3-70b")
		langName  = flag.String("lang", "verilog", "target language: verilog | vhdl")
		list      = flag.Bool("list", false, "list all problem ids and exit")
		showRTL   = flag.Bool("show-rtl", true, "print the final RTL")

		providerName = flag.String("provider", "",
			"LLM provider: "+strings.Join(provider.Names(), " | ")+" (empty: offline)")
		traceLLM   = flag.Bool("trace-llm", false, "interleave one transcript line per LLM call")
		llmMetrics = flag.Bool("llm-metrics", false, "print per-op LLM call metrics at the end")
		flakyRate  = flag.Float64("flaky-error-rate", 0.25, "flaky provider: per-call injected error probability")
		flakySeed  = flag.Int64("flaky-seed", 1, "flaky provider: fault RNG seed")

		checkpointDir = flag.String("checkpoint-dir", "",
			"persist a checkpoint after every pipeline state into this directory (aborted runs resume)")
		resume = flag.Bool("resume", true, "resume from an existing checkpoint in -checkpoint-dir (false: discard it and start over)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "aivril: unexpected argument %q (flags take no positional arguments)\n", flag.Arg(0))
		os.Exit(2)
	}

	suite := bench.NewSuite()
	if *list {
		for _, p := range suite.Problems {
			fmt.Printf("%-24s %-12s %s\n", p.ID, p.Category, oneLine(p.Spec))
		}
		return
	}
	cell, err := exp.RemoteCell{Problem: *problemID, Model: *modelName, Language: *langName, Provider: *providerName}.Resolve(suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aivril: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("=== AIVRIL 2: %s / %s / %s / provider %s ===\n\n", cell.Problem.ID, cell.Model.Name(), cell.Language, cell.Provider)
	fmt.Printf("Specification:\n  %s\n\n", cell.Problem.Spec)

	cfg := cell.Config
	cfg.Trace = func(stage, detail string) {
		fmt.Printf("[%-9s] %s\n", stage, detail)
	}

	stack := provider.DefaultStackConfig()
	if *traceLLM {
		stack.Trace = cfg.Trace
	}
	var metrics *provider.Metrics
	if *llmMetrics {
		metrics = provider.NewMetrics(provider.RealClock())
		stack.Metrics = metrics
	}
	cfg.Provider, err = provider.New(cell.Provider, cell.Model, provider.BuildConfig{
		Stack: stack,
		Flaky: provider.FlakyConfig{Seed: *flakySeed, ErrorRate: *flakyRate},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "aivril: %v\n", err)
		os.Exit(1)
	}

	// -checkpoint-dir only picks the store: the run is one checkpointed
	// loop either way, and without a store it checkpoints nothing.
	var store core.CheckpointStore
	if *checkpointDir != "" {
		cache, err := runner.OpenCache(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aivril: %v\n", err)
			os.Exit(1)
		}
		store = cache.Checkpoints(cell.Job)
		if !*resume {
			store.Delete()
		}
	}
	out, res, err := exp.Evaluate(context.Background(), cell, cfg, store, func(m *core.Machine, _ bool) func(*core.Checkpoint) error {
		return func(cp *core.Checkpoint) error {
			if store == nil || cp != nil {
				return nil
			}
			// The loop could not persist this boundary. Retry once: the
			// write either lands or reports the cause that stops the run.
			c, err := m.Checkpoint()
			if err == nil {
				err = store.Store(c)
			}
			return err
		}
	})
	switch {
	case res == nil && err != nil:
		fmt.Fprintf(os.Stderr, "aivril: checkpointing failed: %v\n", err)
		os.Exit(1)
	case err != nil:
		if metrics != nil {
			fmt.Printf("\n%s\n", metrics.Render())
		}
		// The abort is the program's failure: classified verdict and
		// cause on stderr, non-zero exit for scripts and CI.
		fmt.Fprintf(os.Stderr, "aivril: run aborted: %s: %v\n", res.Verdict(), res.Err)
		if store != nil && store.Load() != nil {
			fmt.Fprintf(os.Stderr, "aivril: checkpoint kept in %s; re-run with the same flags to resume\n", *checkpointDir)
		}
		os.Exit(1)
	}

	fmt.Printf("\n--- outcome ---\n")
	fmt.Printf("baseline syntax OK : %v\n", out.BaselineSyntaxOK)
	fmt.Printf("loop syntax OK     : %v (after %d syntax iterations)\n", res.SyntaxOK, res.SyntaxIters)
	fmt.Printf("self-verified      : %v (after %d functional iterations)\n", res.SelfVerified, res.FuncIters)
	fmt.Printf("reference bench    : %v   <-- pass@1F verdict\n", out.LoopFuncOK)
	fmt.Printf("latency            : baseline %.1fs, syntax loop %.1fs, functional loop %.1fs (total %.1fs)\n",
		res.Latency.Baseline, res.Latency.Syntax, res.Latency.Func, res.Latency.Total())
	if *showRTL {
		fmt.Printf("\n--- final RTL ---\n%s\n", res.FinalRTL)
	}
	if metrics != nil {
		fmt.Printf("\n%s\n", metrics.Render())
	}
}

func oneLine(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}
