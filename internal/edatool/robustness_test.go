package edatool

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
)

// corrupt applies n random byte-level edits to src.
func corrupt(rng *rand.Rand, src string, n int) string {
	b := []byte(src)
	for i := 0; i < n && len(b) > 0; i++ {
		switch rng.Intn(3) {
		case 0: // delete a byte
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case 1: // flip a byte to random printable
			p := rng.Intn(len(b))
			b[p] = byte(32 + rng.Intn(95))
		case 2: // duplicate a span
			p := rng.Intn(len(b))
			q := p + rng.Intn(20)
			if q > len(b) {
				q = len(b)
			}
			b = append(b[:q], append([]byte(string(b[p:q])), b[q:]...)...)
		}
	}
	return string(b)
}

// TestQuickCompileNeverPanicsVerilog: the Verilog front-end returns
// diagnostics (never panics) on arbitrarily corrupted source.
func TestQuickCompileNeverPanicsVerilog(t *testing.T) {
	suite := bench.NewSuite()
	f := func(seed int64, pick uint16, edits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := suite.Problems[int(pick)%len(suite.Problems)]
		src := corrupt(rng, p.GoldenVerilog, 1+int(edits%16))
		res := New(Options{}).Compile(Verilog, Source{Name: "d.v", Text: src})
		return res.Log != "" // always produces a log
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompileNeverPanicsVHDL does the same for VHDL.
func TestQuickCompileNeverPanicsVHDL(t *testing.T) {
	suite := bench.NewSuite()
	f := func(seed int64, pick uint16, edits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := suite.Problems[int(pick)%len(suite.Problems)]
		src := corrupt(rng, p.GoldenVHDL, 1+int(edits%16))
		res := New(Options{}).Compile(VHDL, Source{Name: "d.vhd", Text: src})
		return res.Log != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimulateNeverPanics: even when corrupted source slips past
// the checker, simulation in either HDL converts interpreter trouble
// into faults and always produces a log.
func TestQuickSimulateNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation fuzzing")
	}
	suite := bench.NewSuite()
	for _, lang := range []Language{Verilog, VHDL} {
		f := func(seed int64, pick uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			p := suite.Problems[int(pick)%len(suite.Problems)]
			srcs := problemSources(p, lang)
			// Light corruption: likelier to compile and reach simulation.
			srcs[0].Text = corrupt(rng, srcs[0].Text, 1+rng.Intn(3))
			res := New(Options{}).Simulate(lang, bench.TBName, 50_000, srcs...)
			return res.Log != ""
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("%s: %v", lang, err)
		}
	}
}

// fanOutSource is a chain of levels+1 modules (VHDL: entities) in which
// each level instantiates the one below twice, topped by a testbench
// that does the same: 2^(levels+2)-1 instances, far past the instance
// bound, at a depth well inside the depth limit.
func fanOutSource(lang Language, levels int) Source {
	var sb strings.Builder
	if lang == Verilog {
		sb.WriteString("module m0; endmodule\n")
		for i := 1; i <= levels; i++ {
			fmt.Fprintf(&sb, "module m%d; m%d a(); m%d b(); endmodule\n", i, i-1, i-1)
		}
		fmt.Fprintf(&sb, "module %s; m%d a(); m%d b(); endmodule\n", bench.TBName, levels, levels)
		return Source{Name: "fanout.v", Text: sb.String()}
	}
	sb.WriteString("entity e0 is end entity;\narchitecture a of e0 is begin end architecture;\n")
	for i := 1; i <= levels+1; i++ {
		name := fmt.Sprintf("e%d", i)
		if i == levels+1 {
			name = bench.TBName
		}
		fmt.Fprintf(&sb, "entity %s is end entity;\narchitecture a of %s is begin\n  a: entity work.e%d;\n  b: entity work.e%d;\nend architecture;\n", name, name, i-1, i-1)
	}
	return Source{Name: "fanout.vhd", Text: sb.String()}
}

// TestElabFanOutBounded: a design whose instance count doubles per
// level fails elaboration with a classified diagnostic in both HDLs,
// instead of elaborating 2^18 instances.
func TestElabFanOutBounded(t *testing.T) {
	for _, lang := range []Language{Verilog, VHDL} {
		src := fanOutSource(lang, 16)
		if comp := New(Options{}).Compile(lang, src); !comp.OK {
			t.Fatalf("%s: fan-out design does not compile:\n%s", lang, comp.Log)
		}
		res := New(Options{}).Simulate(lang, bench.TBName, 1000, src)
		if !strings.HasPrefix(res.Log, "ERROR: [XSIM 43-3225] elaboration failed: ") ||
			!strings.Contains(res.Log, "design exceeds 4096 instances") || !res.Failed {
			t.Errorf("%s: want a failed elaboration over the instance bound, got failed=%v log:\n%s", lang, res.Failed, res.Log)
		}
	}
}
