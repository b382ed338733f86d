// Package core implements the AIVRIL 2 pipeline: the testbench-first
// two-stage flow of Figure 1 with the Syntax Optimization loop
// (Review Agent + compiler) and the Functional Optimization loop
// (Verification Agent + simulator), both driving the Code Agent through
// corrective prompts.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/agents"
	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/sim"
)

// Config parameterises a pipeline run.
type Config struct {
	// Model is the calibrated profile the default offline provider
	// serves. It identifies the model for reports even when Provider
	// is set explicitly.
	Model *llm.Profile
	// Provider routes every LLM call through the provider/middleware
	// layer (internal/llm/provider). When nil, New wraps Model in the
	// offline provider behind the default middleware stack — byte-for-
	// byte the seed behavior.
	Provider       provider.Provider
	Language       edatool.Language
	MaxSyntaxIters int // per code artefact (paper: small, ~5)
	MaxFuncIters   int
	MaxSimTime     uint64
	// FreezeTestbench keeps the self-generated bench fixed across the
	// functional loop (the AIVRIL 2 methodology). Disabling it models
	// the AIVRIL 1 co-generation flow for the ablation study.
	FreezeTestbench bool
	// SkipFunctional runs only the syntax loop (RTLFixer-style ablation).
	SkipFunctional bool
	// DesignCache shares parses and simulation results across every
	// compile and simulation this pipeline runs (see
	// edatool.DesignCache): the repair loop re-parses only the unit a
	// repair changed, and a repeated simulation is a memo lookup. It only changes
	// speed, never results, so it deliberately does not enter the
	// experiment cache key. When nil, New creates a private per-pipeline
	// cache; sweeps may inject a shared one.
	DesignCache *edatool.DesignCache
	Trace       func(stage, detail string) // optional transcript sink
}

// Fingerprint identifies the behavioural configuration: every knob
// that changes pipeline outcomes, and none that don't (DesignCache and
// Trace are deliberately absent). The format is a component of the
// runner's content-addressed cache keys and of checkpoint identity —
// changing it orphans every cached sweep, so keep it stable.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("syn%d,fun%d,sim%d,freeze=%t,skipf=%t",
		c.MaxSyntaxIters, c.MaxFuncIters, c.MaxSimTime, c.FreezeTestbench, c.SkipFunctional)
}

// The paper's loop budgets and simulation limit: DefaultConfig's
// values, and what New fills in for a zero field.
const (
	defaultSyntaxIters = 5
	defaultFuncIters   = 5
	defaultSimTime     = 200_000
)

// DefaultConfig returns the configuration used for the headline
// results: the offline provider behind the default middleware stack.
func DefaultConfig(model *llm.Profile, lang edatool.Language) Config {
	return Config{
		Model:           model,
		Provider:        provider.NewStack(provider.NewOffline(model), provider.DefaultStackConfig()),
		Language:        lang,
		MaxSyntaxIters:  defaultSyntaxIters,
		MaxFuncIters:    defaultFuncIters,
		MaxSimTime:      defaultSimTime,
		FreezeTestbench: true,
	}
}

// Latency is the per-stage wall-clock breakdown of Figure 3, seconds.
// The JSON tags are part of the runner's on-disk cache schema — keep
// them stable or cached sweeps silently lose their latency columns.
type Latency struct {
	Baseline float64 `json:"baseline"` // zero-shot RTL generation
	Syntax   float64 `json:"syntax"`   // Syntax Optimization loop (incl. TB syntax checks)
	Func     float64 `json:"func"`     // Functional Optimization loop
}

// Total returns the end-to-end latency.
func (l Latency) Total() float64 { return l.Baseline + l.Syntax + l.Func }

// Artefacts is what a run has committed to its result so far: the
// generated code, the loop outcomes and counts, and the modelled
// latency. A checkpoint carries it as the result holds it.
type Artefacts struct {
	Testbench    string  `json:"testbench,omitempty"`    // frozen self-generated bench
	BaselineRTL  string  `json:"baseline_rtl,omitempty"` // the zero-shot artefact (baseline metrics)
	FinalRTL     string  `json:"final_rtl,omitempty"`
	SyntaxOK     bool    `json:"syntax_ok"`     // final RTL compiles cleanly
	SelfVerified bool    `json:"self_verified"` // functional loop converged on the self bench
	SyntaxIters  int     `json:"syntax_iters"`
	FuncIters    int     `json:"func_iters"`
	Latency      Latency `json:"latency"`
}

// Result is the outcome of one pipeline run on one problem.
type Result struct {
	Problem *bench.Problem

	Artefacts

	// Backend is always zero: nothing writes it. It remains only for
	// the perfbench module, which still reads it (see sim.BackendStats).
	Backend sim.BackendStats

	// Aborted reports that the run terminated early on an
	// unrecoverable LLM provider failure (retries exhausted,
	// cancellation); Err carries the classified error. An
	// aborted run is a clean job failure: no loop hangs and no
	// partially applied artefacts — the fields above reflect the last
	// consistent state.
	Aborted bool
	Err     error
}

// Verdict classifies the run for reports: "pass" (self-verification
// converged), "func-fail", "syntax-fail", or "aborted(<class>)" when
// the LLM provider gave out.
func (r *Result) Verdict() string {
	switch {
	case r.Aborted:
		return "aborted(" + provider.ClassOf(r.Err).String() + ")"
	case !r.SyntaxOK:
		return "syntax-fail"
	case r.SelfVerified:
		return "pass"
	default:
		return "func-fail"
	}
}

// Pipeline executes the AIVRIL 2 flow.
type Pipeline struct {
	cfg    Config
	review agents.ReviewAgent
	verify agents.VerificationAgent
}

// errNoProvider reports a Config with neither Provider nor Model.
var errNoProvider = errors.New("core: config has no provider and no model")

// New returns a pipeline for the given configuration.
func New(cfg Config) *Pipeline {
	if cfg.MaxSyntaxIters <= 0 {
		cfg.MaxSyntaxIters = defaultSyntaxIters
	}
	if cfg.MaxFuncIters <= 0 {
		cfg.MaxFuncIters = defaultFuncIters
	}
	if cfg.MaxSimTime == 0 {
		cfg.MaxSimTime = defaultSimTime
	}
	if cfg.Provider == nil && cfg.Model != nil {
		cfg.Provider = provider.NewStack(provider.NewOffline(cfg.Model), provider.DefaultStackConfig())
	}
	if cfg.DesignCache == nil {
		cfg.DesignCache = edatool.NewDesignCache()
	}
	return &Pipeline{cfg: cfg}
}

func (p *Pipeline) trace(stage, format string, args ...any) {
	if p.cfg.Trace != nil {
		p.cfg.Trace(stage, fmt.Sprintf(format, args...))
	}
}

// tracePrompt traces the corrective prompt render makes of fb,
// rendering it only when a trace sink is set.
func (p *Pipeline) tracePrompt(render func(*llm.Feedback) string, fb *llm.Feedback) {
	if p.cfg.Trace != nil {
		p.cfg.Trace("prompt", render(fb))
	}
}

// compileLatency models EDA compile wall-clock (tool launch + parse).
func compileLatency(sources ...edatool.Source) float64 {
	n := 0
	for _, s := range sources {
		n += len(s.Text)
	}
	return 0.6 + float64(n)*2e-6
}

// designFile returns the candidate RTL file name for the language.
func designFile(lang edatool.Language) string {
	if lang == edatool.Verilog {
		return "design.v"
	}
	return "design.vhd"
}

func tbFile(lang edatool.Language) string {
	if lang == edatool.Verilog {
		return "tb.v"
	}
	return "tb.vhd"
}

// stubDUT builds a port-faithful empty DUT so the testbench can be
// syntax-checked before any RTL exists (the module header is part of
// the user prompt, so this information is legitimately available).
func stubDUT(prob *bench.Problem, lang edatool.Language) edatool.Source {
	if lang == edatool.Verilog {
		return edatool.Source{Name: designFile(lang), Text: prob.ModuleHeaderVerilog() + "\nendmodule\n"}
	}
	hdr := prob.EntityHeaderVHDL()
	return edatool.Source{Name: designFile(lang), Text: "library ieee;\nuse ieee.std_logic_1164.all;\n\n" +
		hdr + "\n\narchitecture stub of " + bench.TopName + " is\nbegin\nend architecture;\n"}
}

// abort finalises res on an unrecoverable provider failure: the run
// terminates with a classified verdict instead of hanging or leaving
// half-applied state.
func (p *Pipeline) abort(res *Result, err error) *Result {
	res.Aborted = true
	res.Err = err
	p.trace("llm", "run aborted (%s): %v", provider.ClassOf(err), err)
	return res
}

// Run executes the full flow on one problem.
func (p *Pipeline) Run(prob *bench.Problem) *Result {
	return p.RunContext(context.Background(), prob)
}

// RunContext executes the full flow on one problem under ctx: caller
// cancellation aborts the run between (and, through the provider
// layer, inside) LLM calls with a classified verdict. It is
// RunCheckpointed without a store or a per-step hook; callers that
// checkpoint or resume use Resume and RunCheckpointed directly.
func (p *Pipeline) RunContext(ctx context.Context, prob *bench.Problem) *Result {
	res, _ := p.NewMachine(prob).RunCheckpointed(ctx, nil, nil)
	return res
}

// EvaluateFunctional runs the final, reference-bench judgement: the
// suite's own testbench decides pass@1F, never the self-generated one.
// The judgement runs the problem's judge shell with its reference
// vectors driven natively (edatool.Judge), which reaches the verdict
// the full textual reference testbench does.
func EvaluateFunctional(lang edatool.Language, prob *bench.Problem, rtl string, maxSimTime uint64) bool {
	return EvaluateFunctionalWith(nil, lang, prob, rtl, maxSimTime)
}

// EvaluateFunctionalWith is EvaluateFunctional through an optional
// design cache: the judge shell never changes per problem, so repeated
// judgements (sweeps, pass@k) reuse its parse, and judging the same RTL
// again reuses the memoized result.
func EvaluateFunctionalWith(cache *edatool.DesignCache, lang edatool.Language, prob *bench.Problem, rtl string, maxSimTime uint64) bool {
	if strings.TrimSpace(rtl) == "" {
		return false
	}
	shell := prob.ShellTBVerilog
	if lang == edatool.VHDL {
		shell = prob.ShellTBVHDL
	}
	res := edatool.Judge(cache, lang, bench.TBName, maxSimTime,
		edatool.Source{Name: designFile(lang), Text: rtl},
		edatool.Source{Name: tbFile(lang), Text: shell},
		prob.Stimulus,
	)
	return res.Passed
}

// EvaluateSyntax checks whether RTL compiles on its own.
func EvaluateSyntax(lang edatool.Language, rtl string) bool {
	return EvaluateSyntaxWith(nil, lang, rtl)
}

// EvaluateSyntaxWith is EvaluateSyntax through an optional design
// cache (unchanged RTL reuses its parse).
func EvaluateSyntaxWith(cache *edatool.DesignCache, lang edatool.Language, rtl string) bool {
	if strings.TrimSpace(rtl) == "" {
		return false
	}
	return edatool.Compile(cache, lang, edatool.Source{Name: designFile(lang), Text: rtl}).OK
}
