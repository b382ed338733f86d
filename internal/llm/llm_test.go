package llm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/sim"
)

var testSuite = bench.NewSuite()

func testReq(id string, lang edatool.Language) GenRequest {
	return GenRequest{Problem: testSuite.ByID(id), Language: lang}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
		for _, sk := range []LangSkill{p.Verilog, p.VHDL} {
			if sk.SyntaxErrRate < 0 || sk.SyntaxErrRate > 1 ||
				sk.FuncErrRate < 0 || sk.FuncErrRate > 1 {
				t.Errorf("%s: rates out of range", p.Name())
			}
			if sk.GenLatency <= 0 {
				t.Errorf("%s: non-positive latency", p.Name())
			}
		}
	}
	for _, want := range []string{"claude-3.5-sonnet", "gpt-4o", "llama3-70b"} {
		if !names[want] {
			t.Errorf("missing profile %q", want)
		}
	}
	if ProfileByName("nope") != nil {
		t.Error("unknown profile should be nil")
	}
}

func TestSessionDeterministic(t *testing.T) {
	m := ProfileByName("gpt-4o")
	req := testReq("counter_up_w4", edatool.Verilog)
	s1, s2 := m.NewSession(req), m.NewSession(req)
	c1, _ := s1.GenerateRTL(nil)
	c2, _ := s2.GenerateRTL(nil)
	if c1 != c2 {
		t.Error("same seed must give same generation")
	}
	tb1, _ := s1.GenerateTestbench()
	tb2, _ := s2.GenerateTestbench()
	if tb1 != tb2 {
		t.Error("same seed must give same testbench")
	}
}

func TestSessionsDifferAcrossModels(t *testing.T) {
	req := testReq("fsm_vending", edatool.Verilog)
	outs := map[string]string{}
	for _, m := range Profiles() {
		c, _ := m.NewSession(req).GenerateRTL(nil)
		outs[m.Name()] = c
	}
	// At least the weakest and strongest should differ in defect content
	// on a hard problem... they may coincide; check determinism instead:
	for name, c := range outs {
		if c == "" {
			t.Errorf("%s produced empty code", name)
		}
	}
}

func TestGenerationErrorRatesOrdering(t *testing.T) {
	// Across the suite, Claude's Verilog generations must compile more
	// often than Llama's, matching the calibration ordering.
	count := func(model *Profile) int {
		ok := 0
		for _, p := range testSuite.Problems {
			s := model.NewSession(GenRequest{Problem: p, Language: edatool.Verilog})
			code, _ := s.GenerateRTL(nil)
			comp := edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "d.v", Text: code})
			if comp.OK {
				ok++
			}
		}
		return ok
	}
	claude := count(ProfileByName("claude-3.5-sonnet"))
	llama := count(ProfileByName("llama3-70b"))
	if claude <= llama {
		t.Errorf("claude syntax-clean %d should exceed llama %d", claude, llama)
	}
	t.Logf("syntax-clean generations: claude %d/156, llama %d/156", claude, llama)
}

func TestVHDLLlamaMostlyBroken(t *testing.T) {
	model := ProfileByName("llama3-70b")
	ok := 0
	for _, p := range testSuite.Problems {
		s := model.NewSession(GenRequest{Problem: p, Language: edatool.VHDL})
		code, _ := s.GenerateRTL(nil)
		if edatool.Compile(nil, edatool.VHDL, edatool.Source{Name: "d.vhd", Text: code}).OK {
			ok++
		}
	}
	// Paper baseline: 1.28% (2/156). Allow a loose band.
	if ok > 20 {
		t.Errorf("llama3 VHDL should be almost always broken, got %d/156 clean", ok)
	}
}

func TestRepairWithLocalisedFeedback(t *testing.T) {
	// A localised syntax defect must eventually be repaired by a strong
	// model given accurate feedback.
	model := ProfileByName("claude-3.5-sonnet")
	prob := testSuite.ByID("counter_up_w8")
	for seed := 0; seed < 5; seed++ {
		s := model.NewSession(GenRequest{Problem: prob, Language: edatool.Verilog}).(*simSession)
		// Force a known defect set.
		s.Started = true
		s.RTLMuts = sampleMutations(rand.New(rand.NewSource(int64(seed))), s.golden(), true, MutSyntax, 1)
		if len(s.RTLMuts) == 0 {
			t.Fatal("no mutation sites in golden")
		}
		m := s.RTLMuts[0]
		fb := &Feedback{Kind: SyntaxFeedback, Items: []FeedbackItem{{
			Line: 3, Message: "error mentioning " + m.Marker, Snippet: m.Marker, Hint: m.Desc,
		}}}
		fixed := false
		for i := 0; i < 10; i++ {
			code, _ := s.GenerateRTL(fb)
			if code == s.golden() {
				fixed = true
				break
			}
		}
		if !fixed {
			t.Errorf("seed %d: localised defect never repaired in 10 iterations", seed)
		}
	}
}

func TestMutationsChangeCode(t *testing.T) {
	// Property: every sampled mutation changes the source text.
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := testSuite.Problems[int(pick)%len(testSuite.Problems)]
		for _, verilog := range []bool{true, false} {
			src := p.GoldenVerilog
			if !verilog {
				src = p.GoldenVHDL
			}
			for _, kind := range []MutKind{MutSyntax, MutFunctional} {
				muts := sampleMutations(rng, src, verilog, kind, 1)
				for _, m := range muts {
					if m.Apply(src) == src {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFunctionalMutationsStillCompile(t *testing.T) {
	// Functional mutations must not introduce syntax errors, otherwise
	// the defect taxonomy collapses.
	rng := rand.New(rand.NewSource(7))
	bad := 0
	total := 0
	for _, p := range testSuite.Problems {
		muts := sampleMutations(rng, p.GoldenVerilog, true, MutFunctional, 1)
		for _, m := range muts {
			total++
			src := m.Apply(p.GoldenVerilog)
			if !edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "d.v", Text: src}).OK {
				bad++
				t.Logf("%s: functional mutation %q broke compilation", p.ID, m.Desc)
			}
		}
	}
	if bad > total/20 {
		t.Errorf("%d/%d functional mutations broke compilation", bad, total)
	}
}

func TestSyntaxMutationsBreakCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	silent := 0
	total := 0
	for _, p := range testSuite.Problems {
		muts := sampleMutations(rng, p.GoldenVerilog, true, MutSyntax, 1)
		for _, m := range muts {
			total++
			src := m.Apply(p.GoldenVerilog)
			if edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "d.v", Text: src}).OK {
				silent++
				t.Logf("%s: syntax mutation %q compiled cleanly", p.ID, m.Desc)
			}
		}
	}
	// A small fraction of "syntax" mutations may be harmless in context;
	// the bulk must genuinely break the compile.
	if silent > total/5 {
		t.Errorf("%d/%d syntax mutations were silent", silent, total)
	}
}

func TestTestbenchCoverageSubsetting(t *testing.T) {
	weak := ProfileByName("llama3-70b")
	strong := ProfileByName("claude-3.5-sonnet")
	prob := testSuite.ByID("counter_up_w8") // sequential: prefix coverage
	wTB, _ := weak.NewSession(testReq("counter_up_w8", edatool.Verilog)).GenerateTestbench()
	sTB, _ := strong.NewSession(testReq("counter_up_w8", edatool.Verilog)).GenerateTestbench()
	// The stronger model's bench should exercise more checks.
	if strings.Count(sTB, "Test Case") <= strings.Count(wTB, "Test Case") {
		t.Errorf("coverage ordering violated: claude %d checks, llama %d checks",
			strings.Count(sTB, "Test Case"), strings.Count(wTB, "Test Case"))
	}
	_ = prob
}

// TestGenerateTestbenchLeavesStimulus pins that a self-generated bench
// never writes into the suite's vectors. Its rows are views of
// Problem.Stimulus (a prefix for sequential problems), so its wrong
// expectation must go into a copy. Every problem in both HDLs gets a
// flawed bench, frozen and co-generated, and every stimulus must still
// hash to its digest afterwards.
func TestGenerateTestbenchLeavesStimulus(t *testing.T) {
	model := *ProfileByName("claude-3.5-sonnet")
	model.Verilog.TBFuncErrRate = 1
	model.VHDL.TBFuncErrRate = 1
	for _, p := range bench.NewSuite().Problems {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			for _, cogen := range []bool{false, true} {
				s := model.NewSession(GenRequest{Problem: p, Language: lang})
				if cogen {
					s.GenerateRTL(nil)
				}
				s.GenerateTestbench()
			}
		}
		st := p.Stimulus
		if sim.NewStimulus(st.Inputs, st.Outputs, st.Seq, st.Vectors, st.In, st.Out).Digest != st.Digest {
			t.Errorf("%s: a self-generated bench wrote into the suite's stimulus", p.ID)
		}
	}
}
