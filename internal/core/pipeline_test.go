package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
)

var testSuite = bench.NewSuite()

func runOne(t *testing.T, model *llm.Profile, lang edatool.Language, id string) *Result {
	t.Helper()
	prob := testSuite.ByID(id)
	if prob == nil {
		t.Fatalf("problem %q not found", id)
	}
	pl := New(DefaultConfig(model, lang))
	return pl.Run(prob)
}

func TestPipelineShiftEnaVerilogClaude(t *testing.T) {
	res := runOne(t, llm.ProfileByName("claude-3.5-sonnet"), edatool.Verilog, "fsm_shift_ena")
	if !res.SyntaxOK {
		t.Fatalf("syntax loop failed; final RTL:\n%s", res.FinalRTL)
	}
	if res.BaselineRTL == "" || res.Testbench == "" {
		t.Error("missing artefacts")
	}
	if res.Latency.Baseline <= 0 || res.Latency.Syntax <= 0 {
		t.Errorf("latency accounting: %+v", res.Latency)
	}
}

func TestPipelineWholeModelMatrixSmall(t *testing.T) {
	// Every model × language on a few problems must complete without
	// panics and produce sane artefacts.
	ids := []string{"gate_and", "counter_up_w4", "seqdet_101"}
	for _, model := range llm.Profiles() {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			for _, id := range ids {
				res := runOne(t, model, lang, id)
				if res.FinalRTL == "" {
					t.Errorf("%s/%v/%s: empty final RTL", model.Name(), lang, id)
				}
				if res.SyntaxOK != EvaluateSyntaxWith(nil, lang, res.FinalRTL) {
					t.Errorf("%s/%v/%s: SyntaxOK disagrees with standalone compile", model.Name(), lang, id)
				}
			}
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	m := llm.ProfileByName("gpt-4o")
	a := runOne(t, m, edatool.Verilog, "fsm_vending")
	b := runOne(t, m, edatool.Verilog, "fsm_vending")
	if a.FinalRTL != b.FinalRTL || a.SyntaxIters != b.SyntaxIters || a.FuncIters != b.FuncIters {
		t.Error("pipeline is not deterministic for identical inputs")
	}
}

func TestEvaluateFunctionalGolden(t *testing.T) {
	prob := testSuite.ByID("counter_up_w4")
	if !EvaluateFunctionalWith(nil, edatool.Verilog, prob, prob.GoldenVerilog, 200_000) {
		t.Error("golden Verilog must pass reference bench")
	}
	if !EvaluateFunctionalWith(nil, edatool.VHDL, prob, prob.GoldenVHDL, 200_000) {
		t.Error("golden VHDL must pass reference bench")
	}
	if EvaluateFunctionalWith(nil, edatool.Verilog, prob, "module top_module(input clk, input reset, output [3:0] q); assign q = 4'd0; endmodule", 200_000) {
		t.Error("stub must fail reference bench")
	}
}

func TestPipelineImprovesOverBaseline(t *testing.T) {
	// Across a sample of problems, the loop's functional pass rate must
	// beat the zero-shot baseline for the weakest model (the paper's
	// central claim, in miniature).
	model := llm.ProfileByName("llama3-70b")
	var basePass, loopPass, n int
	for i, prob := range testSuite.Problems {
		if i%10 != 0 { // every 10th problem keeps the test fast
			continue
		}
		n++
		pl := New(DefaultConfig(model, edatool.Verilog))
		res := pl.Run(prob)
		if EvaluateSyntaxWith(nil, edatool.Verilog, res.BaselineRTL) &&
			EvaluateFunctionalWith(nil, edatool.Verilog, prob, res.BaselineRTL, 200_000) {
			basePass++
		}
		if res.SyntaxOK && EvaluateFunctionalWith(nil, edatool.Verilog, prob, res.FinalRTL, 200_000) {
			loopPass++
		}
	}
	if loopPass < basePass {
		t.Errorf("AIVRIL2 (%d/%d) should not be worse than baseline (%d/%d)", loopPass, n, basePass, n)
	}
	t.Logf("sampled %d problems: baseline %d, aivril2 %d", n, basePass, loopPass)
}

func TestPipelineTraceCallback(t *testing.T) {
	var events []string
	cfg := DefaultConfig(llm.ProfileByName("claude-3.5-sonnet"), edatool.Verilog)
	cfg.Trace = func(stage, detail string) { events = append(events, stage) }
	New(cfg).Run(testSuite.ByID("mux2_w8"))
	if len(events) == 0 {
		t.Error("no trace events")
	}
}

func TestPipelineSkipFunctional(t *testing.T) {
	cfg := DefaultConfig(llm.ProfileByName("gpt-4o"), edatool.Verilog)
	cfg.SkipFunctional = true
	res := New(cfg).Run(testSuite.ByID("adder_w8"))
	if res.FuncIters != 0 || res.Latency.Func != 0 {
		t.Errorf("functional loop ran despite SkipFunctional: %+v", res)
	}
}

func TestEvaluateHelpersEmptyInput(t *testing.T) {
	if EvaluateSyntaxWith(nil, edatool.Verilog, "") || EvaluateSyntaxWith(nil, edatool.VHDL, "  \n") {
		t.Error("empty RTL must not pass the syntax check")
	}
	prob := testSuite.ByID("gate_and")
	if EvaluateFunctionalWith(nil, edatool.Verilog, prob, "", 1000) {
		t.Error("empty RTL must fail functional evaluation")
	}
}

func TestCoGenerationDegradesOutcome(t *testing.T) {
	// The ablation's headline claim in miniature: over a sample, the
	// frozen-testbench flow should beat co-generation functionally.
	model := llm.ProfileByName("claude-3.5-sonnet")
	frozenPass, cogenPass, n := 0, 0, 0
	for i, prob := range testSuite.Problems {
		if i%8 != 0 {
			continue
		}
		n++
		f := New(DefaultConfig(model, edatool.Verilog)).Run(prob)
		if f.SyntaxOK && EvaluateFunctionalWith(nil, edatool.Verilog, prob, f.FinalRTL, 200_000) {
			frozenPass++
		}
		cfg := DefaultConfig(model, edatool.Verilog)
		cfg.FreezeTestbench = false
		c := New(cfg).Run(prob)
		if c.SyntaxOK && EvaluateFunctionalWith(nil, edatool.Verilog, prob, c.FinalRTL, 200_000) {
			cogenPass++
		}
	}
	t.Logf("sampled %d: frozen %d, cogen %d", n, frozenPass, cogenPass)
	if cogenPass > frozenPass+2 { // allow small-sample noise
		t.Errorf("co-generation (%d) should not beat frozen testbench (%d)", cogenPass, frozenPass)
	}
}
