package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
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
		if p.Stimulus == nil || p.Stimulus.Vectors == 0 {
			t.Errorf("%s: no test vectors", p.ID)
		}
		// The renderers take a row count from the output width.
		if len(p.Outputs()) == 0 {
			t.Errorf("%s: no outputs", p.ID)
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

// TestTestbenchTextDigest pins every testbench text the suite renders:
// both reference testbenches, both judge shells, and self-generated
// testbenches over the vector subsets the Code Agent's benches take
// (prefixes, strided picks, single vectors). The reference texts feed
// hdlsim and the textual judge, and the self-generated ones feed
// compile latency and agent feedback, so a renderer change must leave
// them byte-identical.
func TestTestbenchTextDigest(t *testing.T) {
	const want = "56b42bc8214564cb5ed668360badfda4c6ee311c2a6264d00dec0d9fc4706eb3"
	h := sha256.New()
	for _, p := range NewSuite().Problems {
		for _, s := range []string{p.RefTBVerilog, p.RefTBVHDL, p.ShellTBVerilog, p.ShellTBVHDL} {
			fmt.Fprintf(h, "%d\n%s", len(s), s)
		}
		st := p.Stimulus
		n, nIn, nOut := st.Vectors, len(st.Inputs), len(st.Outputs)
		var stridedIn, stridedOut []uint64
		for i := 0; i < n; i += 3 {
			stridedIn = append(stridedIn, st.In[i*nIn:(i+1)*nIn]...)
			stridedOut = append(stridedOut, st.Out[i*nOut:(i+1)*nOut]...)
		}
		half := (n + 1) / 2
		for _, rows := range [][2][]uint64{
			{st.In[:half*nIn], st.Out[:half*nOut]},
			{stridedIn, stridedOut},
			{st.In[(n-1)*nIn:], st.Out[(n-1)*nOut:]},
		} {
			v, h2 := p.VerilogTB(rows[0], rows[1]), p.VHDLTB(rows[0], rows[1])
			fmt.Fprintf(h, "%d\n%s%d\n%s", len(v), v, len(h2), h2)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("testbench text digest %s, want %s", got, want)
	}
}

// TestSuiteLiveHeapAlloc bounds what a built suite keeps alive: at most
// 1.5x the bytes of its own texts (reference testbenches, judge shells,
// goldens and specs) plus 8 bytes per stimulus value. Each vector is
// stored once, as stimulus rows, and the texts are sized to fit, so a
// second copy of the vectors or a doubled text buffer breaks the bound.
func TestSuiteLiveHeapAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSuite()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	var own int64
	for _, p := range s.Problems {
		for _, text := range []string{p.RefTBVerilog, p.RefTBVHDL, p.ShellTBVerilog, p.ShellTBVHDL,
			p.GoldenVerilog, p.GoldenVHDL, p.Spec} {
			own += int64(len(text))
		}
		own += 8 * int64(len(p.Stimulus.In)+len(p.Stimulus.Out))
	}
	runtime.KeepAlive(s)
	t.Logf("suite live heap %d bytes, own data %d bytes (%.2fx)", live, own, float64(live)/float64(own))
	if limit := own * 3 / 2; live > limit {
		t.Errorf("suite keeps %d bytes live, want at most %d (1.5x its %d bytes of texts and vectors)", live, limit, own)
	}
}
