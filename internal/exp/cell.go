package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
	"repro/internal/runner"
)

// Cell is a RemoteCell resolved against a suite: the objects its names
// stand for, its configuration and its job identity.
type Cell struct {
	Problem  *bench.Problem
	Model    *llm.Profile
	Language edatool.Language
	Provider string // the provider.Names entry the cell runs through
	// Config is the configuration the job fingerprints. Resolve builds
	// it as RemoteCell.Configure over core.DefaultConfig, without a
	// provider.
	Config core.Config
	Job    runner.Job
}

// Resolve checks the cell against suite and derives what running it
// needs. It is the one place a cell's names are looked up, so the job
// service and the aivril command derive the job a sweep mints for the
// same cell. It fails on an unknown problem, model, language or
// provider; the language is "verilog" or "vhdl" in any case, and ""
// means Verilog.
func (c RemoteCell) Resolve(suite *bench.Suite) (Cell, error) {
	prob := suite.ByID(c.Problem)
	if prob == nil {
		return Cell{}, fmt.Errorf("unknown problem %q", c.Problem)
	}
	model := llm.ProfileByName(c.Model)
	if model == nil {
		return Cell{}, fmt.Errorf("unknown model %q", c.Model)
	}
	var lang edatool.Language
	switch strings.ToLower(c.Language) {
	case "", "verilog":
		lang = edatool.Verilog
	case "vhdl":
		lang = edatool.VHDL
	default:
		return Cell{}, fmt.Errorf("unknown language %q (verilog | vhdl)", c.Language)
	}
	name, tag := providerName(c.Provider)
	if !slices.Contains(provider.Names(), name) {
		return Cell{}, fmt.Errorf("unknown provider %q (have: %s)", name, strings.Join(provider.Names(), ", "))
	}
	cfg := core.DefaultConfig(model, lang)
	cfg.Provider = nil
	c.Configure(&cfg)
	return Cell{
		Problem:  prob,
		Model:    model,
		Language: lang,
		Provider: name,
		Config:   cfg,
		Job:      cellJob(prob, model, lang, cfg.Fingerprint(), tag),
	}, nil
}

// cellJob is the job of a cell: its identity in the result cache, the
// checkpoint tree and the job service.
func cellJob(prob *bench.Problem, model *llm.Profile, lang edatool.Language, config, tag string) runner.Job {
	return runner.Job{
		Problem:  prob.ID,
		Model:    model.Name(),
		Language: lang.String(),
		Config:   config,
		Provider: tag,
	}
}

// providerName normalises a provider name ("" is "offline") and tags
// it for job keys and reports. The offline default's tag is "", so
// every job key and JSON report minted before providers existed stays
// byte-identical.
func providerName(name string) (normal, tag string) {
	if name == "" || name == "offline" {
		return "offline", ""
	}
	return name, name
}

// Evaluate runs cell under cfg and judges it. It is the one executor
// of a cell, for sweeps, the job service and the aivril command: it
// resumes from the checkpoint in store when that holds one for the
// cell (core.Pipeline.Resume), drives the machine to the end with
// RunCheckpointed, and judges a completed run with Outcome. cfg is
// cell.Config with what a run adds: a provider, a design cache, a
// trace.
//
// watch, when non-nil, is called once with the machine and whether it
// resumed; the hook it returns runs at every state boundary as
// RunCheckpointed's after. An error from that hook stops the run and
// is returned as is, with a nil result. A run the provider aborted is
// returned with its result and an error wrapping the classified cause.
func Evaluate(ctx context.Context, cell Cell, cfg core.Config, store core.CheckpointStore,
	watch func(m *core.Machine, resumed bool) func(*core.Checkpoint) error) (ProblemOutcome, *core.Result, error) {
	m, resumed := core.New(cfg).Resume(cell.Problem, store)
	var after func(*core.Checkpoint) error
	if watch != nil {
		after = watch(m, resumed)
	}
	res, err := m.RunCheckpointed(ctx, store, after)
	switch {
	case err != nil:
		return ProblemOutcome{}, nil, err
	case res.Aborted:
		return ProblemOutcome{}, res, fmt.Errorf("cell %s/%s aborted: %w", cell.Problem.ID, cell.Language, res.Err)
	}
	return Outcome(cell.Problem, cell.Language, cfg, cell.Job.Provider, res), res, nil
}
