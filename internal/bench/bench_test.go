package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/edatool"
)

func TestSuiteHas156Problems(t *testing.T) {
	s := NewSuite()
	if len(s.Problems) != 156 {
		t.Errorf("suite has %d problems, want 156 (VerilogEval-Human size)", len(s.Problems))
	}
}

func TestSuiteUniqueIDs(t *testing.T) {
	s := NewSuite()
	seen := map[string]bool{}
	for _, p := range s.Problems {
		if seen[p.ID] {
			t.Errorf("duplicate problem id %q", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestSuiteProblemShape(t *testing.T) {
	s := NewSuite()
	for _, p := range s.Problems {
		if p.Spec == "" || p.GoldenVerilog == "" || p.GoldenVHDL == "" {
			t.Errorf("%s: missing spec or golden", p.ID)
		}
		if len(p.Vectors) == 0 {
			t.Errorf("%s: no test vectors", p.ID)
		}
		if p.RefTBVerilog == "" || p.RefTBVHDL == "" {
			t.Errorf("%s: missing reference testbench", p.ID)
		}
		if p.Seq && (p.NewState == nil || p.Step == nil) {
			t.Errorf("%s: sequential without model", p.ID)
		}
		if !p.Seq && p.Comb == nil {
			t.Errorf("%s: combinational without model", p.ID)
		}
		if p.Hardness <= 0 || p.Hardness > 1 {
			t.Errorf("%s: hardness %v out of range", p.ID, p.Hardness)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, b := NewSuite(), NewSuite()
	for i := range a.Problems {
		if a.Problems[i].RefTBVerilog != b.Problems[i].RefTBVerilog {
			t.Fatalf("%s: suite generation is not deterministic", a.Problems[i].ID)
		}
	}
}

// TestGoldenVerilogSelfConsistent compiles and simulates every golden
// Verilog design against its reference testbench. This is the keystone
// integration test: the EDA substrate, TB generator, and reference
// models must all agree.
func TestGoldenVerilogSelfConsistent(t *testing.T) {
	s := NewSuite()
	for _, p := range s.Problems {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			res := edatool.Simulate(nil, edatool.Verilog, TBName, 0,
				edatool.Source{Name: "design.v", Text: p.GoldenVerilog},
				edatool.Source{Name: "tb.v", Text: p.RefTBVerilog},
			)
			if !res.Passed {
				t.Errorf("golden Verilog fails its own testbench\n--- log ---\n%s\n--- rtl ---\n%s",
					trunc(res.Log), p.GoldenVerilog)
			}
		})
	}
}

// TestGoldenVHDLSelfConsistent does the same for the VHDL goldens.
func TestGoldenVHDLSelfConsistent(t *testing.T) {
	s := NewSuite()
	for _, p := range s.Problems {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			res := edatool.Simulate(nil, edatool.VHDL, TBName, 0,
				edatool.Source{Name: "design.vhd", Text: p.GoldenVHDL},
				edatool.Source{Name: "tb.vhd", Text: p.RefTBVHDL},
			)
			if !res.Passed {
				t.Errorf("golden VHDL fails its own testbench\n--- log ---\n%s\n--- rtl ---\n%s",
					trunc(res.Log), p.GoldenVHDL)
			}
		})
	}
}

func trunc(s string) string {
	lines := strings.Split(s, "\n")
	if len(lines) > 30 {
		lines = append(lines[:30], fmt.Sprintf("... (%d more lines)", len(lines)-30))
	}
	return strings.Join(lines, "\n")
}

func TestModuleHeaders(t *testing.T) {
	s := NewSuite()
	p := s.ByID("fsm_shift_ena")
	if p == nil {
		t.Fatal("paper FSM problem missing")
	}
	h := p.ModuleHeaderVerilog()
	if !strings.Contains(h, "module top_module") || !strings.Contains(h, "shift_ena") {
		t.Errorf("header:\n%s", h)
	}
	e := p.EntityHeaderVHDL()
	if !strings.Contains(e, "entity top_module") {
		t.Errorf("entity:\n%s", e)
	}
}

func TestCategoriesCoverPaperMix(t *testing.T) {
	s := NewSuite()
	cats := s.Categories()
	want := []string{"arith", "counter", "fsm", "gates", "mux", "register", "shiftreg"}
	for _, w := range want {
		found := false
		for _, c := range cats {
			if c == w {
				found = true
			}
		}
		if !found {
			t.Errorf("category %q missing (have %v)", w, cats)
		}
	}
}
