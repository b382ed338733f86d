package llm

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
)

// TestReferenceBenchMutationAdequacy measures the kill rate of the
// suite's reference testbenches against injected functional mutants.
// This validates the measurement chain end to end: if the reference
// benches could not observe the defects the LLM layer injects, every
// pass@1F number in the reproduction would be inflated.
func TestReferenceBenchMutationAdequacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite mutation analysis")
	}
	rng := rand.New(rand.NewSource(42))
	killed, survived, total := 0, 0, 0
	for i, p := range testSuite.Problems {
		if i%3 != 0 { // sample a third of the suite
			continue
		}
		muts := sampleMutations(rng, p.GoldenVerilog, true, MutFunctional, 2)
		for _, m := range muts {
			src := m.Apply(p.GoldenVerilog)
			comp := edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "d.v", Text: src})
			if !comp.OK {
				continue // miscategorised mutant; counted elsewhere
			}
			total++
			res := edatool.Simulate(nil, edatool.Verilog, bench.TBName, 200_000,
				edatool.Source{Name: "d.v", Text: src},
				edatool.Source{Name: "tb.v", Text: p.RefTBVerilog})
			if res.Passed {
				survived++
				t.Logf("%s: mutant %q survives the reference bench", p.ID, m.Desc)
			} else {
				killed++
			}
		}
	}
	if total == 0 {
		t.Fatal("no mutants generated")
	}
	rate := float64(killed) / float64(total)
	t.Logf("reference-bench kill rate: %d/%d = %.1f%%", killed, total, 100*rate)
	if rate < 0.60 {
		t.Errorf("kill rate %.2f too low: reference benches cannot observe injected defects", rate)
	}
}

// TestAgentBenchWeakerThanReference verifies the coverage asymmetry the
// functional loop depends on: the low-coverage self-generated bench must
// let strictly more mutants survive than the reference bench does.
func TestAgentBenchWeakerThanReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite mutation analysis")
	}
	model := ProfileByName("claude-3.5-sonnet")
	rng := rand.New(rand.NewSource(99))
	refKills, agentKills, total := 0, 0, 0
	for i, p := range testSuite.Problems {
		if i%5 != 0 {
			continue
		}
		sess := model.NewSession(GenRequest{Problem: p, Language: edatool.Verilog}).(*simSession)
		// Build an uncorrupted agent bench for a fair coverage-only test.
		agentTB, _ := sess.GenerateTestbench()
		if sess.TBMuts != nil || len(sess.TBCode) == 0 {
			agentTB = sess.TBCode // strip injected syntax defects
		}
		muts := sampleMutations(rng, p.GoldenVerilog, true, MutFunctional, 2)
		for _, m := range muts {
			src := m.Apply(p.GoldenVerilog)
			if !edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "d.v", Text: src}).OK {
				continue
			}
			total++
			ref := edatool.Simulate(nil, edatool.Verilog, bench.TBName, 200_000,
				edatool.Source{Name: "d.v", Text: src},
				edatool.Source{Name: "tb.v", Text: p.RefTBVerilog})
			if !ref.Passed {
				refKills++
			}
			ag := edatool.Simulate(nil, edatool.Verilog, bench.TBName, 200_000,
				edatool.Source{Name: "d.v", Text: src},
				edatool.Source{Name: "tb.v", Text: agentTB})
			if !ag.Passed {
				agentKills++
			}
		}
	}
	t.Logf("kills out of %d mutants: reference %d, agent bench %d", total, refKills, agentKills)
	if agentKills > refKills {
		t.Errorf("agent bench (%d kills) must not out-detect the reference bench (%d)", agentKills, refKills)
	}
}
