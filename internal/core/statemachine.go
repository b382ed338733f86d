package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/agents"
	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// State names one phase of the pipeline state machine. The machine
// walks TestbenchGen → TestbenchSyntax → ZeroShotRTL → SyntaxLoop(i) →
// FunctionalLoop(i) → Verdict, where the two loop states re-enter
// themselves once per iteration (and the functional loop re-enters the
// syntax loop for post-repair compile fixes, exactly as the monolithic
// pipeline did).
type State int

// Machine states, in canonical order.
const (
	StateTestbenchGen State = iota
	StateTestbenchSyntax
	StateZeroShotRTL
	StateSyntaxLoop
	StateFunctionalLoop
	StateVerdict
	StateDone

	// NumStates counts the states above (metrics arrays index by State).
	NumStates
)

var stateNames = [NumStates]string{
	"testbench-gen",
	"testbench-syntax",
	"zero-shot-rtl",
	"syntax-loop",
	"functional-loop",
	"verdict",
	"done",
}

func (s State) String() string {
	if s < 0 || s >= NumStates {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalText encodes a state as its name, the checkpoint's form.
func (s State) MarshalText() ([]byte, error) {
	if s < 0 || s >= NumStates {
		return nil, fmt.Errorf("core: invalid machine state %d", int(s))
	}
	return []byte(stateNames[s]), nil
}

// UnmarshalText decodes a state from its name.
func (s *State) UnmarshalText(name []byte) error {
	for i, n := range stateNames {
		if n == string(name) {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown machine state %q", name)
}

// Checkpoint is the serializable machine snapshot taken at a step
// boundary. It carries everything a fresh process needs to continue
// the run: the machine's position and the result's artefacts, both as
// the machine holds them, and the LLM session snapshot (conversation
// state, defect stream position). The identity fields pin which run
// the checkpoint belongs to, so a checkpoint can never be restored
// into a mismatched configuration.
type Checkpoint struct {
	Schema   int    `json:"schema"`
	Problem  string `json:"problem"`
	Model    string `json:"model"`
	Language string `json:"language"`
	Provider string `json:"provider,omitempty"`
	Config   string `json:"config"`

	Position
	Artefacts

	Session json.RawMessage `json:"session,omitempty"`
}

// CheckpointSchema is the current Checkpoint.Schema value.
const CheckpointSchema = 1

// Position is where a machine stands in the flow: its state, its loop
// counters and its working artefacts, which are not yet committed to
// the result.
type Position struct {
	State    State `json:"state"`
	Steps    int   `json:"steps"`     // transitions executed (including after a restore)
	TBIter   int   `json:"tb_iter"`   // testbench-syntax iterations completed
	SynIter  int   `json:"syn_iter"`  // current syntax-loop iteration
	FuncIter int   `json:"func_iter"` // functional-loop iterations entered
	InFunc   bool  `json:"in_func"`   // syntax loop nested inside the functional stage

	TB  string `json:"tb,omitempty"`  // working testbench during the testbench-syntax loop
	RTL string `json:"rtl,omitempty"` // working RTL revision
}

// check rejects a position no run under cfg reaches: a counter outside
// its budget would let a loop run past it.
func (pos Position) check(cfg Config) error {
	switch {
	case pos.State < 0 || pos.State >= NumStates:
		return fmt.Errorf("core: invalid machine state %d", int(pos.State))
	case pos.Steps < 0:
		return fmt.Errorf("core: checkpoint steps %d", pos.Steps)
	case pos.TBIter < 0 || pos.TBIter > cfg.MaxSyntaxIters,
		pos.SynIter < 0 || pos.SynIter > cfg.MaxSyntaxIters,
		pos.FuncIter < 0 || pos.FuncIter > cfg.MaxFuncIters:
		return fmt.Errorf("core: checkpoint counters tb_iter %d, syn_iter %d, func_iter %d outside budgets %d/%d",
			pos.TBIter, pos.SynIter, pos.FuncIter, cfg.MaxSyntaxIters, cfg.MaxFuncIters)
	}
	return nil
}

// Machine executes the pipeline one state transition at a time. Each
// Step performs the agent turns of one state iteration and leaves the
// machine at a consistent boundary, so Checkpoint after any Step
// yields a resumable snapshot; a crash mid-step resumes from the
// previous boundary and re-executes the step deterministically.
type Machine struct {
	p    *Pipeline
	prob *bench.Problem
	code *agents.CodeAgent
	res  *Result
	pos  Position
}

// NewMachine returns a fresh machine for one problem.
func (p *Pipeline) NewMachine(prob *bench.Problem) *Machine {
	return &Machine{p: p, prob: prob, res: &Result{Problem: prob}}
}

// State returns the machine's current state.
func (m *Machine) State() State { return m.pos.State }

// Steps returns the number of transitions executed so far.
func (m *Machine) Steps() int { return m.pos.Steps }

// Result returns the result under construction. It is final once Step
// has reported done, or once Abort has classified a step error.
func (m *Machine) Result() *Result { return m.res }

// Abort finalises the result after a step error: the run terminates
// with a classified verdict and the fields reflect the last consistent
// state, exactly as the monolithic pipeline's abort path did.
func (m *Machine) Abort(err error) *Result { return m.p.abort(m.res, err) }

func (m *Machine) ensureAgent() error {
	if m.code != nil {
		return nil
	}
	if m.p.cfg.Provider == nil {
		return &provider.Error{Class: provider.ClassInvalid, Err: errNoProvider}
	}
	code, err := agents.NewCodeAgent(m.p.cfg.Provider, m.prob, m.p.cfg.Language)
	if err != nil {
		return err
	}
	m.code = code
	return nil
}

// Step executes one transition. It returns done=true once the machine
// has passed Verdict; a non-nil error is an unrecoverable provider
// failure the caller finalises via Abort. RunCheckpointed is the one
// loop over Step.
func (m *Machine) Step(ctx context.Context) (bool, error) {
	if m.pos.State == StateDone {
		return true, nil
	}
	m.pos.Steps++
	switch m.pos.State {
	case StateTestbenchGen:
		return false, m.stepTestbenchGen(ctx)
	case StateTestbenchSyntax:
		return false, m.stepTestbenchSyntax(ctx)
	case StateZeroShotRTL:
		return false, m.stepZeroShotRTL(ctx)
	case StateSyntaxLoop:
		return false, m.stepSyntaxLoop(ctx)
	case StateFunctionalLoop:
		return false, m.stepFunctionalLoop(ctx)
	case StateVerdict:
		m.pos.State = StateDone
		return true, nil
	}
	return false, fmt.Errorf("core: invalid machine state %d", int(m.pos.State))
}

// stepTestbenchGen generates the self-verification testbench (Fig. 2
// step 1) and enters its syntax-check loop.
func (m *Machine) stepTestbenchGen(ctx context.Context) error {
	if err := m.ensureAgent(); err != nil {
		return err
	}
	tb, lat, err := m.code.GenerateTestbench(ctx)
	if err != nil {
		return err
	}
	m.res.Latency.Syntax += lat
	m.p.trace("testbench", "generated self-verification bench (%d bytes)", len(tb))
	m.pos.TB = tb
	m.pos.TBIter = 0
	m.pos.State = StateTestbenchSyntax
	return nil
}

// stepTestbenchSyntax runs one iteration of the testbench syntax loop
// (Fig. 2 step 2): compile against a stub DUT, and on failure repair
// from Review-Agent feedback. The loop exits on a clean compile or an
// exhausted iteration budget.
func (m *Machine) stepTestbenchSyntax(ctx context.Context) error {
	cfg := m.p.cfg
	lang := cfg.Language
	if m.pos.TBIter < cfg.MaxSyntaxIters {
		stub, tb := stubDUT(m.prob, lang), edatool.Source{Name: tbFile(lang), Text: m.pos.TB}
		comp := edatool.Compile(cfg.DesignCache, lang, stub, tb)
		m.res.Latency.Syntax += compileLatency(stub, tb)
		if !comp.OK {
			fb := m.p.review.ParseCompileLog(comp.Log)
			alat, err := m.code.AnalysisLatency(ctx, llm.SyntaxFeedback, len(fb.Items))
			if err != nil {
				return err
			}
			m.res.Latency.Syntax += alat
			m.p.trace("review", "testbench syntax errors: %d", len(fb.Items))
			m.p.tracePrompt(m.p.review.CorrectivePrompt, fb)
			tb, lat, err := m.code.RepairTestbench(ctx, fb)
			m.pos.TB = tb
			if err != nil {
				return err
			}
			m.res.Latency.Syntax += lat
			m.res.SyntaxIters++
			m.pos.TBIter++
			if m.pos.TBIter < cfg.MaxSyntaxIters {
				return nil // another testbench-syntax iteration
			}
		}
	}
	m.res.Testbench = m.pos.TB
	m.pos.State = StateZeroShotRTL
	return nil
}

// stepZeroShotRTL generates the zero-shot RTL — the artefact that IS
// the baseline measurement — and enters the syntax loop.
func (m *Machine) stepZeroShotRTL(ctx context.Context) error {
	rtl, lat, err := m.code.GenerateRTL(ctx, nil)
	if err != nil {
		return err
	}
	m.res.Latency.Baseline += lat
	m.res.BaselineRTL = rtl
	m.p.trace("codegen", "zero-shot RTL generated (%d bytes)", len(rtl))
	m.pos.RTL = rtl
	m.pos.SynIter = 0
	m.pos.InFunc = false
	m.pos.State = StateSyntaxLoop
	return nil
}

// stepSyntaxLoop runs one iteration of the Syntax Optimization loop:
// compile, and on failure regenerate from Review-Agent feedback.
// Latency accumulates into the syntax or functional column depending
// on which stage the loop is serving.
func (m *Machine) stepSyntaxLoop(ctx context.Context) error {
	cfg := m.p.cfg
	latAcc := &m.res.Latency.Syntax
	if m.pos.InFunc {
		latAcc = &m.res.Latency.Func
	}
	src := edatool.Source{Name: designFile(cfg.Language), Text: m.pos.RTL}
	comp := edatool.Compile(cfg.DesignCache, cfg.Language, src)
	*latAcc += compileLatency(src)
	if comp.OK {
		return m.finishSyntaxLoop(true)
	}
	if m.pos.SynIter >= cfg.MaxSyntaxIters {
		return m.finishSyntaxLoop(false)
	}
	fb := m.p.review.ParseCompileLog(comp.Log)
	alat, err := m.code.AnalysisLatency(ctx, llm.SyntaxFeedback, len(fb.Items))
	if err != nil {
		m.res.FinalRTL = m.pos.RTL
		return err
	}
	*latAcc += alat
	m.p.trace("review", "syntax errors: %d", len(fb.Items))
	m.p.tracePrompt(m.p.review.CorrectivePrompt, fb)
	rtl, lat, err := m.code.GenerateRTL(ctx, fb)
	m.pos.RTL = rtl
	if err != nil {
		m.res.FinalRTL = m.pos.RTL
		return err
	}
	*latAcc += lat
	m.res.SyntaxIters++
	m.pos.SynIter++
	return nil
}

// finishSyntaxLoop routes a completed syntax loop: in the baseline
// stage success proceeds to the functional loop (or straight to the
// verdict for syntax-only ablations); in the functional stage success
// re-enters the next functional iteration. Failure is terminal either
// way.
func (m *Machine) finishSyntaxLoop(ok bool) error {
	m.res.FinalRTL = m.pos.RTL
	if !m.pos.InFunc {
		m.res.SyntaxOK = ok
		if !ok {
			m.p.trace("syntax", "loop exhausted without clean compile")
			m.pos.State = StateVerdict
			return nil
		}
		if m.p.cfg.SkipFunctional {
			m.res.SelfVerified = true // syntax-only flow claims success here
			m.pos.State = StateVerdict
			return nil
		}
		m.pos.FuncIter = 0
		m.pos.State = StateFunctionalLoop
		return nil
	}
	if !ok {
		m.res.SyntaxOK = false
		m.pos.State = StateVerdict
		return nil
	}
	m.pos.FuncIter++
	m.pos.State = StateFunctionalLoop
	return nil
}

// stepFunctionalLoop runs one iteration of the Functional Optimization
// loop: simulate against the frozen testbench, and on failure repair
// from Verification-Agent feedback, then re-enter the syntax loop to
// catch syntactic regressions in the repaired RTL.
func (m *Machine) stepFunctionalLoop(ctx context.Context) error {
	cfg := m.p.cfg
	lang := cfg.Language
	if m.pos.FuncIter >= cfg.MaxFuncIters {
		m.res.FinalRTL = m.pos.RTL
		m.pos.State = StateVerdict
		return nil
	}
	sim := edatool.Simulate(cfg.DesignCache, lang, bench.TBName, cfg.MaxSimTime,
		edatool.Source{Name: designFile(lang), Text: m.pos.RTL},
		edatool.Source{Name: tbFile(lang), Text: m.res.Testbench},
	)
	m.res.Latency.Func += sim.LatencyModel
	// The Verification Agent analyses every simulation log, also the
	// passing one that lets it declare success.
	alat, err := m.code.AnalysisLatency(ctx, llm.FunctionalFeedback, 0)
	if err != nil {
		return err
	}
	m.res.Latency.Func += alat
	if m.p.verify.Passed(sim.Log) {
		m.res.SelfVerified = true
		m.p.trace("verify", "all self-checks passed after %d functional iteration(s)", m.pos.FuncIter)
		m.res.FinalRTL = m.pos.RTL
		m.pos.State = StateVerdict
		return nil
	}
	fb := m.p.verify.ParseSimLog(sim.Log)
	m.res.Latency.Func += llm.VerifyPerItem * float64(len(fb.Items))
	m.p.trace("verify", "functional failures: %d", len(fb.Items))
	m.p.tracePrompt(m.p.verify.CorrectivePrompt, fb)
	m.res.FuncIters++
	rtl, lat, err := m.code.GenerateRTL(ctx, fb)
	m.pos.RTL = rtl
	if err != nil {
		return err
	}
	m.res.Latency.Func += lat
	if !cfg.FreezeTestbench {
		// AIVRIL 1-style co-generation: the bench is regenerated
		// alongside the RTL, losing the stable verification target.
		tb, lat, err := m.code.GenerateTestbench(ctx)
		m.res.Testbench = tb
		if err != nil {
			return err
		}
		m.res.Latency.Func += lat
	}
	// Regenerated code may have regressed syntactically.
	m.pos.SynIter = 0
	m.pos.InFunc = true
	m.pos.State = StateSyntaxLoop
	return nil
}

// providerName returns the cfg's provider name ("" when only
// a bare model is configured).
func (m *Machine) providerName() string {
	if m.p.cfg.Provider != nil {
		return m.p.cfg.Provider.Name()
	}
	return ""
}

func (m *Machine) modelName() string {
	if m.p.cfg.Provider != nil {
		return m.p.cfg.Provider.ModelName()
	}
	if m.p.cfg.Model != nil {
		return m.p.cfg.Model.Name()
	}
	return ""
}

// Checkpoint serializes the machine at the current step boundary. It
// fails when the session snapshot fails; RunCheckpointed then runs on
// without resumability rather than not at all.
func (m *Machine) Checkpoint() (*Checkpoint, error) {
	cp := &Checkpoint{
		Schema:   CheckpointSchema,
		Problem:  m.prob.ID,
		Model:    m.modelName(),
		Language: m.p.cfg.Language.String(),
		Provider: m.providerName(),
		Config:   m.p.cfg.Fingerprint(),

		Position:  m.pos,
		Artefacts: m.res.Artefacts,
	}
	if m.code != nil {
		snap, err := m.code.Session.Snapshot()
		if err != nil {
			return nil, err
		}
		cp.Session = snap
	}
	return cp, nil
}

// Restore rebuilds a machine from a checkpoint taken by an equivalent
// pipeline (same problem, model, language, configuration fingerprint,
// and provider). The restored machine continues from the checkpointed
// boundary and — because the session snapshot pins the conversation
// state — produces the same remaining artefacts an uninterrupted run
// would have.
func (p *Pipeline) Restore(cp *Checkpoint, prob *bench.Problem) (*Machine, error) {
	if cp == nil {
		return nil, errors.New("core: nil checkpoint")
	}
	if cp.Schema != CheckpointSchema {
		return nil, fmt.Errorf("core: checkpoint schema %d, want %d", cp.Schema, CheckpointSchema)
	}
	if prob == nil || prob.ID != cp.Problem {
		return nil, fmt.Errorf("core: checkpoint is for problem %q", cp.Problem)
	}
	m := p.NewMachine(prob)
	if got := p.cfg.Language.String(); got != cp.Language {
		return nil, fmt.Errorf("core: checkpoint language %q, pipeline %q", cp.Language, got)
	}
	if got := p.cfg.Fingerprint(); got != cp.Config {
		return nil, fmt.Errorf("core: checkpoint config %q, pipeline %q", cp.Config, got)
	}
	if cp.Model != "" && m.modelName() != "" && m.modelName() != cp.Model {
		return nil, fmt.Errorf("core: checkpoint model %q, pipeline %q", cp.Model, m.modelName())
	}
	if cp.Provider != "" && m.providerName() != "" && m.providerName() != cp.Provider {
		return nil, fmt.Errorf("core: checkpoint provider %q, pipeline %q", cp.Provider, m.providerName())
	}
	if err := cp.Position.check(p.cfg); err != nil {
		return nil, err
	}
	if err := m.ensureAgent(); err != nil {
		return nil, err
	}
	if cp.Session != nil {
		if err := m.code.Session.Restore(cp.Session); err != nil {
			return nil, err
		}
	} else if st := cp.State; st != StateTestbenchGen && st != StateVerdict && st != StateDone {
		return nil, errors.New("core: mid-run checkpoint lacks a session snapshot")
	}
	m.pos = cp.Position
	m.res.Artefacts = cp.Artefacts
	return m, nil
}

// CheckpointStore is one run's checkpoint slot: RunCheckpointed
// persists a Checkpoint into it after every step and deletes it once
// it can no longer pay off, and Resume restores from it. Load reports
// a missing or undecodable checkpoint as false. runner.Cache.Checkpoints
// binds a job's on-disk slot to this interface.
type CheckpointStore interface {
	Load(v any) bool
	Store(v any) error
	Delete() error
}

// Resume returns the machine for one run of prob: restored from the
// store's checkpoint when it holds one for this pipeline, fresh when
// the store is nil, empty, or holds a checkpoint that does not match.
// resumed reports which. Both outcomes of a found checkpoint are
// reported through cfg.Trace under stage "job"; one that is JSON but
// not a checkpoint, such as one naming an unknown state, is unusable.
func (p *Pipeline) Resume(prob *bench.Problem, store CheckpointStore) (m *Machine, resumed bool) {
	if store == nil {
		return p.NewMachine(prob), false
	}
	// Declared past the nil check: Load takes it as an interface, so it
	// lives on the heap, and a run without a store must not pay for it.
	var raw json.RawMessage
	if !store.Load(&raw) {
		return p.NewMachine(prob), false
	}
	var cp Checkpoint
	err := json.Unmarshal(raw, &cp)
	if err == nil {
		m, err = p.Restore(&cp, prob)
	}
	if err != nil {
		p.trace("job", "checkpoint unusable (%v); starting over", err)
		return p.NewMachine(prob), false
	}
	p.trace("job", "resumed from checkpoint at state %s (step %d)", m.State(), m.Steps())
	return m, true
}

// RunCheckpointed drives the machine to completion. After every step
// it persists a checkpoint into store (when non-nil) and then calls
// after (when non-nil) with that checkpoint, or with nil when none was
// persisted: no store, a failed session snapshot, or a failed write.
// An error from after stops the machine at that boundary, keeps the
// checkpoint, and is returned raw; the caller decides whether it is
// fatal.
//
// A provider failure finalises the result through the classified abort
// path (first return). The store keeps its checkpoint only while a
// later run can use it: a completed run deletes it, and so does an
// abort that was not a cancellation and that provider.ResumableAfter
// rejects, since the same request would fail the same way. A failed
// delete is not reported: the checkpoint it leaves resumes to the same
// end. The step that failed is never checkpointed: resume restarts
// from the previous boundary, whose session snapshot makes the replay
// deterministic.
func (m *Machine) RunCheckpointed(ctx context.Context, store CheckpointStore, after func(*Checkpoint) error) (*Result, error) {
	for {
		done, err := m.Step(ctx)
		if err != nil {
			res := m.Abort(err)
			if store != nil && provider.ClassOf(err) != provider.ClassCanceled && !provider.ResumableAfter(err) {
				store.Delete()
			}
			return res, nil
		}
		var cp *Checkpoint
		if store != nil {
			if c, err := m.Checkpoint(); err == nil && store.Store(c) == nil {
				cp = c
			}
		}
		if after != nil {
			if err := after(cp); err != nil {
				return nil, err
			}
		}
		if done {
			if store != nil {
				store.Delete()
			}
			return m.res, nil
		}
	}
}
