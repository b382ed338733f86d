package llm

import (
	"math/rand"
	"strings"

	"repro/internal/edatool"
)

// simSession is the deterministic simulated conversation for one
// (model, problem, language) triple. It renders candidate code as the
// problem's golden implementation plus a set of active injected defects,
// and interprets corrective feedback to decide which defects get fixed.
type simSession struct {
	profile *Profile
	req     GenRequest
	skill   LangSkill
	seed    int64
	src     *countedSource
	rng     *rand.Rand

	rtlMuts []Mutation // active defects in the current RTL revision
	tbMuts  []Mutation // active defects in the current testbench
	tbCode  string     // frozen testbench body (before mutations)
	started bool
	cogen   bool // testbench regenerated mid-loop (AIVRIL 1 flow)
}

func (s *simSession) verilog() bool { return s.req.Language == edatool.Verilog }

func (s *simSession) golden() string {
	if s.verilog() {
		return s.req.Problem.GoldenVerilog
	}
	return s.req.Problem.GoldenVHDL
}

// GenerateTestbench emits the self-verification testbench: a real
// self-checking bench over a model-dependent subset of the reference
// vectors, possibly carrying syntax defects of its own.
//
// When called after RTL generation has started (the AIVRIL 1-style
// co-generation flow regenerates the bench inside the functional loop),
// the simultaneous-generation complexity the paper describes degrades
// bench quality: lower coverage and higher error rates.
func (s *simSession) GenerateTestbench() (string, float64) {
	p := s.req.Problem
	coverage := s.skill.TBCoverage
	tbSynErr := s.skill.TBSyntaxErrRate
	tbFuncErr := s.skill.TBFuncErrRate
	if s.started { // co-generation mode
		s.cogen = true
		coverage *= 0.7
		tbSynErr = clamp01(tbSynErr * 1.5)
		tbFuncErr = clamp01(tbFuncErr*1.8 + 0.15)
	}
	// The bench takes its vectors as rows of the suite's stimulus.
	st := p.Stimulus
	nIn, nOut := len(st.Inputs), len(st.Outputs)
	n := int(float64(st.Vectors)*coverage + 0.5)
	if n < 1 {
		n = 1
	}
	var in, out []uint64
	if p.Seq {
		// Sequential behaviour depends on the full history: the agent
		// bench keeps a prefix (shorter sims = weaker late-cycle coverage).
		in, out = st.In[:n*nIn], st.Out[:n*nOut]
	} else {
		in, out = make([]uint64, 0, n*nIn), make([]uint64, 0, n*nOut)
		for _, i := range s.rng.Perm(st.Vectors)[:n] {
			in = append(in, st.In[i*nIn:(i+1)*nIn]...)
			out = append(out, st.Out[i*nOut:(i+1)*nOut]...)
		}
	}
	// A flawed bench encodes a wrong expectation on one vector: correct
	// RTL will "fail" self-verification against it. The prefix rows are
	// the suite's own, so the expectation goes into a private copy.
	if s.rng.Float64() < tbFuncErr {
		k := s.rng.Intn(n)
		o := s.rng.Intn(nOut)
		mask := uint64(1)<<uint(p.Outputs()[o].Width) - 1
		out = append([]uint64(nil), out...)
		out[k*nOut+o] = (out[k*nOut+o] + 1) & mask
	}
	if s.verilog() {
		s.tbCode = p.VerilogTB(in, out)
	} else {
		s.tbCode = p.VHDLTB(in, out)
	}
	// The bench itself may be syntactically flawed.
	s.tbMuts = nil
	if s.rng.Float64() < tbSynErr {
		s.tbMuts = sampleMutations(s.rng, s.tbCode, s.verilog(), MutSyntax, 1)
	}
	return render(s.tbCode, s.tbMuts), s.skill.TBGenLatency
}

// The per-finding cost (seconds) of a Review and a Verification agent
// call, on top of the profile's base latency.
const (
	ReviewPerItem = 0.25
	VerifyPerItem = 0.35
)

// AnalysisLatency implements Session: the cost of the Review or
// Verification agent's own LLM call on a log with n findings.
func (s *simSession) AnalysisLatency(kind FeedbackKind, items int) float64 {
	base := s.skill.ReviewLatency
	per := ReviewPerItem
	if kind == FunctionalFeedback {
		base = s.skill.VerifyLatency
		per = VerifyPerItem
	}
	return base + per*float64(items)
}

// RepairTestbench applies syntax feedback to the testbench.
func (s *simSession) RepairTestbench(feedback *Feedback) (string, float64) {
	s.tbMuts = s.repair(s.tbMuts, feedback, s.tbCode)
	return render(s.tbCode, s.tbMuts), s.skill.RepairLatency
}

// GenerateRTL produces candidate RTL. A nil feedback means a fresh
// zero-shot attempt: defects are sampled per the calibrated rates.
// With feedback, the session repairs its current revision.
func (s *simSession) GenerateRTL(feedback *Feedback) (string, float64) {
	if feedback == nil || !s.started {
		s.started = true
		s.sampleInitialDefects()
		return render(s.golden(), s.rtlMuts), s.skill.GenLatency
	}
	s.rtlMuts = s.repair(s.rtlMuts, feedback, s.golden())
	return render(s.golden(), s.rtlMuts), s.skill.RepairLatency
}

// sampleInitialDefects draws the zero-shot defect set.
func (s *simSession) sampleInitialDefects() {
	p := s.req.Problem
	s.rtlMuts = nil
	if s.rng.Float64() < effectiveRate(s.skill.SyntaxErrRate, p.Hardness) {
		n := 1
		for n < 4 && s.rng.Float64() < s.skill.ExtraSyntaxErr {
			n++
		}
		s.rtlMuts = append(s.rtlMuts, sampleMutations(s.rng, s.golden(), s.verilog(), MutSyntax, n)...)
	}
	if s.rng.Float64() < effectiveRate(s.skill.FuncErrRate, p.Hardness) {
		n := 1
		for n < 3 && s.rng.Float64() < s.skill.ExtraFuncErr {
			n++
		}
		s.rtlMuts = append(s.rtlMuts, sampleMutations(s.rng, s.golden(), s.verilog(), MutFunctional, n)...)
	}
}

// repair decides, defect by defect, whether the feedback fixes it.
// Feedback that accurately localises a defect (its marker appears in a
// diagnostic snippet or message) is fixed with RepairSkill probability;
// unlocalised defects only get the blind-repair chance. Each applied
// repair may inject a fresh defect (RepairNoise), modelling regressions.
func (s *simSession) repair(muts []Mutation, feedback *Feedback, baseSrc string) []Mutation {
	if feedback == nil {
		return muts
	}
	var remaining []Mutation
	repaired := 0
	for _, m := range muts {
		var pFix float64
		switch m.Kind {
		case MutSyntax:
			if feedback.Kind == SyntaxFeedback && feedbackLocalises(feedback, m) {
				pFix = s.skill.RepairSkill
			} else {
				pFix = s.skill.BlindRepair
			}
		case MutFunctional:
			if feedback.Kind == FunctionalFeedback && len(feedback.Items) > 0 {
				pFix = s.skill.FuncRepairSkill
			} else {
				pFix = s.skill.BlindRepair * 0.5
			}
		}
		if s.rng.Float64() < pFix {
			repaired++
			continue // defect fixed: drop it
		}
		remaining = append(remaining, m)
	}
	// Regression risks: syntax repairs can introduce fresh syntax
	// defects (RepairNoise) or silently change behaviour
	// (FuncNoiseOnRepair); functional repairs can regress functionally.
	// Co-generation splits the model's attention between two artefacts,
	// roughly doubling regression risk (the "additional complexity" the
	// paper attributes to simultaneous generation).
	repairNoise := s.skill.RepairNoise
	funcNoise := s.skill.FuncNoiseOnRepair
	if s.cogen {
		repairNoise = clamp01(repairNoise * 1.8)
		funcNoise = clamp01(funcNoise*2.0 + 0.10)
	}
	// Chasing a phantom bug: functional feedback with nothing real to
	// fix (a flawed self-bench blaming correct RTL) tempts the model
	// into "fixing" working code.
	if feedback.Kind == FunctionalFeedback && len(muts) == 0 && len(feedback.Items) > 0 {
		if s.rng.Float64() < funcNoise*1.5 {
			remaining = append(remaining, sampleMutations(s.rng, baseSrc, s.verilog(), MutFunctional, 1)...)
		}
	}
	for i := 0; i < repaired; i++ {
		if s.rng.Float64() < repairNoise {
			kind := MutSyntax
			if feedback.Kind == FunctionalFeedback {
				kind = MutFunctional
			}
			remaining = append(remaining, sampleMutations(s.rng, baseSrc, s.verilog(), kind, 1)...)
		}
		if feedback.Kind == SyntaxFeedback && s.rng.Float64() < funcNoise {
			remaining = append(remaining, sampleMutations(s.rng, baseSrc, s.verilog(), MutFunctional, 1)...)
		}
	}
	return remaining
}

// feedbackLocalises reports whether any feedback item pinpoints the
// mutation: its marker text appears in a snippet or message, or the
// defect class is named.
func feedbackLocalises(fb *Feedback, m Mutation) bool {
	for _, item := range fb.Items {
		if m.Marker != "" &&
			(strings.Contains(item.Snippet, m.Marker) || strings.Contains(item.Message, m.Marker)) {
			return true
		}
		if strings.Contains(item.Hint, m.Desc) {
			return true
		}
	}
	// Structural defects (missing end/endmodule) rarely echo the marker;
	// accept generic syntax-error localisation when the feedback carries
	// line-level diagnostics at all.
	structural := strings.Contains(m.Desc, "missing") || strings.Contains(m.Desc, "misspelled")
	return structural && len(fb.Items) > 0
}
