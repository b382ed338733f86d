// Package exp is the experiment harness: it runs the AIVRIL 2 pipeline
// and its baselines over the full benchmark suite and aggregates the
// metrics behind every table and figure in the paper's evaluation
// (Table 1, Table 2, Figure 3), plus its ablations.
package exp

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

// ProblemOutcome captures one problem's measurements. It is the
// payload persisted per cell in the runner's result cache, so its JSON
// shape is the cache schema.
type ProblemOutcome struct {
	ID       string `json:"id"`
	Category string `json:"category"`
	// Provider records which LLM provider produced the cell when it is
	// not the offline default ("" = offline, keeping legacy cache
	// entries and the seed-era JSON shape byte-identical).
	Provider string `json:"provider,omitempty"`

	BaselineSyntaxOK bool `json:"baseline_syntax_ok"`
	BaselineFuncOK   bool `json:"baseline_func_ok"`
	LoopSyntaxOK     bool `json:"loop_syntax_ok"`
	LoopFuncOK       bool `json:"loop_func_ok"`
	SelfVerified     bool `json:"self_verified"`

	SyntaxIters int          `json:"syntax_iters"`
	FuncIters   int          `json:"func_iters"`
	Latency     core.Latency `json:"latency"`
}

// Summary aggregates a (model, language) sweep over the suite.
type Summary struct {
	Model    string
	License  string
	Language edatool.Language
	// Provider names the non-default LLM provider the sweep ran
	// through ("" = offline default).
	Provider string
	N        int

	Outcomes []ProblemOutcome

	BaselineSyntaxPass int
	BaselineFuncPass   int
	LoopSyntaxPass     int
	LoopFuncPass       int

	AvgBaselineLatency float64
	AvgSyntaxLatency   float64
	AvgFuncLatency     float64
	AvgSyntaxIters     float64
	AvgFuncIters       float64
}

// Rates returns the four pass@1 percentages of Table 1.
func (s *Summary) Rates() (baseS, baseF, loopS, loopF float64) {
	n := s.N
	return 100 * eval.Rate(n, s.BaselineSyntaxPass),
		100 * eval.Rate(n, s.BaselineFuncPass),
		100 * eval.Rate(n, s.LoopSyntaxPass),
		100 * eval.Rate(n, s.LoopFuncPass)
}

// DeltaF returns the ΔF column: percentage improvement of the loop's
// functional rate over the baseline's (N/A when the baseline is zero).
func (s *Summary) DeltaF() (float64, bool) {
	if s.BaselineFuncPass == 0 {
		return 0, false
	}
	b := float64(s.BaselineFuncPass)
	l := float64(s.LoopFuncPass)
	return 100 * (l - b) / b, true
}

// RemoteCell is the job spec: the wire-complete description of one
// sweep cell, the POST /jobs body of a job service and the "spec" of
// its job records (internal/serve names it Spec). The zero value of
// every optional knob selects the paper default, so {"problem": ...,
// "model": ..., "language": ...} is a complete spec. Every knob that
// enters the config fingerprint is present, so the server derives the
// identical content-addressed job ID (callers should verify the
// returned ID against Job.Key() to catch config drift). Configure
// hooks that touch knobs outside this set cannot be dispatched
// remotely — the ID check turns that into a loud per-cell error
// instead of a silent cache split.
type RemoteCell struct {
	Problem  string `json:"problem"`
	Model    string `json:"model"`
	Language string `json:"language"`           // "verilog" (default) or "vhdl"
	Provider string `json:"provider,omitempty"` // provider.Names entry; "" = "offline"

	MaxSyntaxIters int    `json:"max_syntax_iters,omitempty"`
	MaxFuncIters   int    `json:"max_func_iters,omitempty"`
	MaxSimTime     uint64 `json:"max_sim_time,omitempty"`
	// CoGenTestbench regenerates the bench every functional iteration
	// (the AIVRIL 1 ablation); default keeps it frozen.
	CoGenTestbench bool `json:"cogen_testbench,omitempty"`
	SkipFunctional bool `json:"skip_functional,omitempty"`
}

// remoteCell describes the cell of problem in a sweep under cfg.
// Configure is its inverse.
func remoteCell(problem, model, lang, tag string, cfg core.Config) RemoteCell {
	return RemoteCell{
		Problem:        problem,
		Model:          model,
		Language:       lang,
		Provider:       tag,
		MaxSyntaxIters: cfg.MaxSyntaxIters,
		MaxFuncIters:   cfg.MaxFuncIters,
		MaxSimTime:     cfg.MaxSimTime,
		CoGenTestbench: !cfg.FreezeTestbench,
		SkipFunctional: cfg.SkipFunctional,
	}
}

// Configure sets the cell's knobs on cfg, the default configuration of
// the cell's model and language. A zero budget keeps cfg's.
func (c RemoteCell) Configure(cfg *core.Config) {
	if c.MaxSyntaxIters > 0 {
		cfg.MaxSyntaxIters = c.MaxSyntaxIters
	}
	if c.MaxFuncIters > 0 {
		cfg.MaxFuncIters = c.MaxFuncIters
	}
	if c.MaxSimTime > 0 {
		cfg.MaxSimTime = c.MaxSimTime
	}
	cfg.FreezeTestbench = !c.CoGenTestbench
	cfg.SkipFunctional = c.SkipFunctional
}

// Dispatch executes one cell on a remote job service and returns its
// outcome. Cancellation and retry policy live inside the dispatcher
// (internal/serve/client implements one); the runner treats a
// returned error exactly like a local evaluation failure — the cell
// is marked Failed and never cached.
type Dispatch func(job runner.Job, cell RemoteCell) (ProblemOutcome, error)

// Options tweaks a sweep.
type Options struct {
	Problems   []*bench.Problem // defaults to the full suite
	Configure  func(*core.Config)
	MaxWorkers int
	// Runner, when set, orchestrates the sweep: its cache makes runs
	// resumable (finished cells are served from it, unfinished ones
	// resume from their last pipeline-state checkpoint) and its
	// progress reporter streams per-cell outcomes. When nil the sweep
	// runs on a private in-memory runner (MaxWorkers workers).
	Runner *runner.Runner
	// Provider names the provider provider.New builds
	// ("" = the offline default with the default middleware stack —
	// byte-identical to the pre-provider harness). Non-default
	// providers join the job cache key, so their cells never collide
	// with offline results.
	Provider string
	// ProviderConfig parameterises the middleware stack and fault
	// profile of the selected provider.
	ProviderConfig provider.BuildConfig
	// Dispatch, when set, sends cache-miss cells to a remote job
	// service instead of evaluating them in-process (benchsuite
	// -server). The runner's local cache still short-circuits known
	// cells first, and because the service persists the same payload
	// into the same content-addressed cells, remote and in-process
	// sweeps merge through a shared cache directory. Dispatched cells
	// checkpoint server-side, not in the local cache.
	Dispatch Dispatch
	// DesignCache shares one design cache across every cell of the
	// sweep (see edatool.DesignCache): identical (problem, RTL) pairs
	// reuse a memoized simulation result, and the per-problem reference
	// testbenches parse once per sweep. Cache-key-neutral —
	// warm results are byte-identical to cold, so cached cells and
	// golden pins are unaffected. When nil, Run creates a sweep-private
	// cache; pass one to share across sweeps (e.g. a daemon).
	DesignCache *edatool.DesignCache
}

// configKey fingerprints the effective pipeline configuration. It is
// part of the runner job identity, so sweeps with different budgets or
// ablation variants (Configure hooks) occupy distinct cache cells.
func configKey(cfg core.Config) string {
	return cfg.Fingerprint()
}

// effectiveConfig applies provider selection and the Configure hook on
// top of the defaults. It panics on an unknown provider name: that is
// a caller configuration bug (CLIs validate the flag up front), not a
// per-cell runtime failure.
func (o Options) effectiveConfig(model *llm.Profile, lang edatool.Language) core.Config {
	cfg := core.DefaultConfig(model, lang)
	if o.Provider != "" {
		p, err := provider.New(o.Provider, model, o.ProviderConfig)
		if err != nil {
			panic(fmt.Sprintf("exp: %v", err))
		}
		cfg.Provider = p
	}
	if o.Configure != nil {
		o.Configure(&cfg)
	}
	return cfg
}

// providerTag names the provider for cache keys and reports. The
// offline default maps to "" so every pre-provider cache key and JSON
// report stays byte-identical.
func (o Options) providerTag() string {
	if o.Provider == "" || o.Provider == "offline" {
		return ""
	}
	return o.Provider
}

// evaluate runs the pipeline and both judgements for one cell. This is
// the unit of work the runner executes and caches. When the runner
// has a cache, the cell checkpoints into it after every pipeline
// state: a checkpoint left by a crashed or aborted invocation
// resumes the cell mid-run, with the artefacts, outcome and cache
// entry an uninterrupted run would have. Aborted runs (provider gave
// up after exhausting its resilience budget) surface as an error so
// the runner marks the cell Failed and — key for resumability — never
// caches it: the next invocation recomputes the cell instead of
// serving a poisoned result.
func evaluate(r *runner.Runner, job runner.Job, prob *bench.Problem, lang edatool.Language, cfg core.Config, tag string) (ProblemOutcome, error) {
	var store core.CheckpointStore
	if r.Cache != nil {
		store = r.Cache.Checkpoints(job)
	}
	m, resumed := core.New(cfg).Resume(prob, store)
	base, written := m.Steps(), 0
	// A checkpoint that cannot be written only degrades resumability,
	// never the sweep, so the hook only counts.
	res, _ := m.RunCheckpointed(context.Background(), store, func(cp *core.Checkpoint) error {
		if cp != nil {
			written++
		}
		return nil
	})
	if resumed {
		r.AddResume(written, 1, m.Steps()-base)
	} else if written > 0 {
		r.AddResume(written, 0, 0)
	}
	if res.Aborted {
		return ProblemOutcome{}, fmt.Errorf("cell %s/%s aborted: %w", prob.ID, lang, res.Err)
	}
	return Outcome(prob, lang, cfg, tag, res), nil
}

// Outcome runs the reference judgements over a completed (non-aborted)
// pipeline result and assembles the cache payload for its cell. It is
// exported so other executors of pipeline runs — the job service in
// internal/serve — persist the exact same payload shape into the same
// cache cells the experiment harness uses.
func Outcome(prob *bench.Problem, lang edatool.Language, cfg core.Config, tag string, res *core.Result) ProblemOutcome {
	out := ProblemOutcome{
		ID:           prob.ID,
		Category:     prob.Category,
		Provider:     tag,
		SelfVerified: res.SelfVerified,
		SyntaxIters:  res.SyntaxIters,
		FuncIters:    res.FuncIters,
		Latency:      res.Latency,
	}
	out.BaselineSyntaxOK = core.EvaluateSyntaxWith(cfg.DesignCache, lang, res.BaselineRTL)
	if out.BaselineSyntaxOK {
		out.BaselineFuncOK = core.EvaluateFunctionalWith(cfg.DesignCache, lang, prob, res.BaselineRTL, cfg.MaxSimTime)
	}
	out.LoopSyntaxOK = res.SyntaxOK
	if res.SyntaxOK {
		out.LoopFuncOK = core.EvaluateFunctionalWith(cfg.DesignCache, lang, prob, res.FinalRTL, cfg.MaxSimTime)
	}
	return out
}

// Run sweeps one model over one language by submitting one job per
// problem to the runner. Failed cells are left out of the summary, so
// N counts the cells that have results.
func Run(model *llm.Profile, lang edatool.Language, opts Options) *Summary {
	problems := opts.Problems
	if problems == nil {
		problems = bench.NewSuite().Problems
	}
	r := opts.Runner
	if r == nil {
		r = &runner.Runner{Workers: opts.MaxWorkers}
	}
	cfg := opts.effectiveConfig(model, lang)
	// One design cache for the whole sweep (unless the Configure hook
	// pinned its own): warm cells skip re-parsing the unchanged
	// testbenches and re-run identical designs. Stats deltas
	// land in the run manifest next to the runner cache stats.
	if cfg.DesignCache == nil {
		cfg.DesignCache = opts.DesignCache
		if cfg.DesignCache == nil {
			cfg.DesignCache = edatool.NewDesignCache()
		}
	}
	elabBefore := cfg.DesignCache.Stats()
	key := configKey(cfg)
	tag := opts.providerTag()
	jobs := make([]runner.Job, len(problems))
	for i, p := range problems {
		jobs[i] = runner.Job{
			Problem:  p.ID,
			Model:    model.Name(),
			Language: lang.String(),
			Config:   key,
			Provider: tag,
		}
	}
	results := runner.Execute(r, jobs, func(i int, job runner.Job) (ProblemOutcome, error) {
		if opts.Dispatch != nil {
			return opts.Dispatch(job, remoteCell(problems[i].ID, model.Name(), lang.String(), tag, cfg))
		}
		return evaluate(r, job, problems[i], lang, cfg, tag)
	})
	elab := cfg.DesignCache.Stats().Sub(elabBefore)
	r.AddElab(elab.DesignHits, elab.DesignMisses, elab.ParseHits, elab.ParseMisses)

	sum := &Summary{
		Model:    model.Name(),
		License:  model.License(),
		Language: lang,
		Provider: tag,
	}
	for _, res := range results {
		if res.Status == runner.Failed {
			continue
		}
		if sum.Outcomes == nil {
			// Sized once: a retained summary holds no append slack.
			sum.Outcomes = make([]ProblemOutcome, 0, len(results))
		}
		sum.Outcomes = append(sum.Outcomes, res.Value)
	}
	sum.N = len(sum.Outcomes)

	var latB, latS, latF, itS, itF float64
	for _, o := range sum.Outcomes {
		if o.BaselineSyntaxOK {
			sum.BaselineSyntaxPass++
		}
		if o.BaselineFuncOK {
			sum.BaselineFuncPass++
		}
		if o.LoopSyntaxOK {
			sum.LoopSyntaxPass++
		}
		if o.LoopFuncOK {
			sum.LoopFuncPass++
		}
		latB += o.Latency.Baseline
		latS += o.Latency.Syntax
		latF += o.Latency.Func
		itS += float64(o.SyntaxIters)
		itF += float64(o.FuncIters)
	}
	n := float64(sum.N)
	if n > 0 {
		sum.AvgBaselineLatency = latB / n
		sum.AvgSyntaxLatency = latS / n
		sum.AvgFuncLatency = latF / n
		sum.AvgSyntaxIters = itS / n
		sum.AvgFuncIters = itF / n
	}
	return sum
}

// CategoryRates aggregates loop pass@1F per problem category — a
// breakdown the paper does not report but that explains where the
// functional loop wins and loses.
func (s *Summary) CategoryRates() map[string][2]int {
	out := map[string][2]int{}
	for _, o := range s.Outcomes {
		e := out[o.Category]
		e[1]++
		if o.LoopFuncOK {
			e[0]++
		}
		out[o.Category] = e
	}
	return out
}

// Matrix runs every profile over both languages (Table 1 / Figure 3).
func Matrix(opts Options) []*Summary {
	var out []*Summary
	for _, model := range llm.Profiles() {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			out = append(out, Run(model, lang, opts))
		}
	}
	return out
}
