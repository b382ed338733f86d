package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/exp"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
	"repro/internal/sim"
)

// defaultSimTime is core.DefaultConfig's simulation limit; expected
// outcomes are keyed with it.
const defaultSimTime = 200_000

// defaultConfig is the fingerprint of the headline configuration.
var defaultConfig = core.DefaultConfig(llm.ProfileByName("claude-3.5-sonnet"), edatool.Verilog).Fingerprint()

// sweep is one exp.Run: a model over a language under a Configure hook.
// config is the resulting fingerprint at the default simulation limit.
type sweep struct {
	model     *llm.Profile
	lang      edatool.Language
	configure func(*core.Config)
	config    string
}

func newSweep(model *llm.Profile, lang edatool.Language, configure func(*core.Config)) sweep {
	cfg := core.DefaultConfig(model, lang)
	if configure != nil {
		configure(&cfg)
	}
	return sweep{model, lang, configure, cfg.Fingerprint()}
}

var languages = []edatool.Language{edatool.Verilog, edatool.VHDL}

// table1Sweeps is exp.Matrix's order: every profile over both
// languages at the default configuration.
func table1Sweeps() []sweep {
	var out []sweep
	for _, m := range llm.Profiles() {
		for _, l := range languages {
			out = append(out, newSweep(m, l, nil))
		}
	}
	return out
}

// repairBudgets is the E5 iteration-budget sweep.
var repairBudgets = []int{1, 2, 3, 5, 8}

// repairSweeps is the repair-loop mix: the E4 ablation comparators and
// the E5 budget sweep, claude-3.5-sonnet, both languages.
func repairSweeps() []sweep {
	claude := llm.ProfileByName("claude-3.5-sonnet")
	var out []sweep
	for _, l := range languages {
		for _, c := range baseline.Comparators() {
			out = append(out, newSweep(claude, l, c.Configure))
		}
		for _, b := range repairBudgets {
			b := b
			out = append(out, newSweep(claude, l, func(c *core.Config) {
				c.MaxSyntaxIters = b
				c.MaxFuncIters = b
			}))
		}
	}
	return out
}

// withSimTime chains a simulation-limit override after configure.
func withSimTime(configure func(*core.Config), t uint64) func(*core.Config) {
	return func(c *core.Config) {
		if configure != nil {
			configure(c)
		}
		c.MaxSimTime = t
	}
}

func parseLanguage(s string) (edatool.Language, error) {
	switch strings.ToLower(s) {
	case "verilog":
		return edatool.Verilog, nil
	case "vhdl":
		return edatool.VHDL, nil
	}
	return 0, fmt.Errorf("unknown language %q", s)
}

// cellLog collects per-cell wall times (dispatch to outcome) of the
// cells the benchmark dispatches itself and, for traced in-process
// cells, simulation-backend counters.
type cellLog struct {
	mu      sync.Mutex
	lat     []time.Duration
	backend sim.BackendStats
	busy    time.Duration
}

func (l *cellLog) add(d time.Duration) {
	l.mu.Lock()
	l.lat = append(l.lat, d)
	l.busy += d
	l.mu.Unlock()
}

func (l *cellLog) reset() {
	l.mu.Lock()
	l.lat = nil
	l.busy = 0
	l.backend = sim.BackendStats{}
	l.mu.Unlock()
}

// localExec evaluates the cells of traced passes in-process through the
// exp.Dispatch seam, as exp's own executor does (core.Pipeline, then the
// judgements of exp.Outcome), so the benchmark can run each cell step
// by step under spans. Untraced passes leave Dispatch unset and run on
// exp's executor.
type localExec struct {
	suite *bench.Suite
	cache *edatool.DesignCache
	log   *cellLog

	// provs holds one offline provider stack per model, shared by every
	// cell as exp shares one per sweep.
	provMu sync.Mutex
	provs  map[string]provider.Provider

	// Tracing state.
	rec      *recorder
	sweepID  int
	capture  bool
	mu       sync.Mutex
	captured []capturedCell
}

func (x *localExec) dispatch(job runner.Job, cell exp.RemoteCell) (exp.ProblemOutcome, error) {
	t0 := time.Now()
	prob := x.suite.ByID(cell.Problem)
	model := llm.ProfileByName(cell.Model)
	lang, err := parseLanguage(cell.Language)
	if prob == nil || model == nil || err != nil {
		return exp.ProblemOutcome{}, fmt.Errorf("cell %s: unknown problem, model or language", job)
	}
	cfg := core.DefaultConfig(model, lang)
	cfg.Provider = x.provider(model)
	cfg.MaxSyntaxIters = cell.MaxSyntaxIters
	cfg.MaxFuncIters = cell.MaxFuncIters
	cfg.MaxSimTime = cell.MaxSimTime
	cfg.FreezeTestbench = !cell.CoGenTestbench
	cfg.SkipFunctional = cell.SkipFunctional
	cfg.DesignCache = x.cache
	if cfg.Fingerprint() != job.Config {
		return exp.ProblemOutcome{}, fmt.Errorf("cell %s: config %s, job says %s", job, cfg.Fingerprint(), job.Config)
	}
	out, err := x.traced(prob, lang, cfg)
	if err != nil {
		return out, err
	}
	x.log.add(time.Since(t0))
	return out, nil
}

func (x *localExec) provider(model *llm.Profile) provider.Provider {
	x.provMu.Lock()
	defer x.provMu.Unlock()
	p, ok := x.provs[model.Name()]
	if !ok {
		if x.provs == nil {
			x.provs = map[string]provider.Provider{}
		}
		p = provider.NewStack(provider.NewOffline(model), provider.DefaultStackConfig())
		x.provs[model.Name()] = p
	}
	return p
}

// traced runs one cell step by step under spans: exp.cell, one
// core.<state> per Machine.Step with llm.<op> children, and the
// judgements exp.Outcome makes, each core.EvaluateSyntaxWith or
// core.EvaluateFunctionalWith call under an exp.judge.syntax or
// exp.judge.functional span (one toolchain compile or simulation
// each). The outcome gate proves the result equals exp.Outcome's.
func (x *localExec) traced(prob *bench.Problem, lang edatool.Language, cfg core.Config) (exp.ProblemOutcome, error) {
	rec := x.rec
	cell := rec.newCell()
	cellSpan := rec.begin("exp.cell", x.sweepID, cell)
	defer rec.end(cellSpan)

	tr := &llmTracer{rec: rec}
	cfg.Provider = provider.Chain(cfg.Provider, tr)
	m := core.New(cfg).NewMachine(prob)
	for {
		st := rec.begin("core."+m.State().String(), cellSpan, cell)
		done, err := m.Step(withSpan(context.Background(), st, cell))
		rec.end(st)
		if err != nil {
			m.Abort(err)
			return exp.ProblemOutcome{}, fmt.Errorf("cell %s/%s aborted: %w", prob.ID, lang, err)
		}
		if done {
			break
		}
	}
	res := m.Result()
	x.log.mu.Lock()
	x.log.backend.Add(res.Backend)
	x.log.mu.Unlock()

	judge := func(name string, f func() bool) bool {
		id := rec.begin(name, cellSpan, cell)
		defer rec.end(id)
		return f()
	}
	syntax := func(rtl string) bool {
		return judge("exp.judge.syntax", func() bool { return core.EvaluateSyntaxWith(cfg.DesignCache, lang, rtl) })
	}
	functional := func(rtl string) bool {
		return judge("exp.judge.functional", func() bool {
			return core.EvaluateFunctionalWith(cfg.DesignCache, lang, prob, rtl, cfg.MaxSimTime)
		})
	}
	out := exp.ProblemOutcome{
		ID:           prob.ID,
		Category:     prob.Category,
		SelfVerified: res.SelfVerified,
		SyntaxIters:  res.SyntaxIters,
		FuncIters:    res.FuncIters,
		Latency:      res.Latency,
	}
	out.BaselineSyntaxOK = syntax(res.BaselineRTL)
	if out.BaselineSyntaxOK {
		out.BaselineFuncOK = functional(res.BaselineRTL)
	}
	out.LoopSyntaxOK = res.SyntaxOK
	if res.SyntaxOK {
		out.LoopFuncOK = functional(res.FinalRTL)
	}
	if x.capture {
		x.mu.Lock()
		x.captured = append(x.captured, capturedCell{prob: prob, lang: lang, maxSimTime: cfg.MaxSimTime, code: tr.code})
		x.mu.Unlock()
	}
	return out, nil
}
