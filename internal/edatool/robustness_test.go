package edatool

import (
	"fmt"
	"math/rand"
	"regexp"
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
		res := Compile(nil, Verilog, Source{Name: "d.v", Text: src})
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
		res := Compile(nil, VHDL, Source{Name: "d.vhd", Text: src})
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
			res := Simulate(nil, lang, bench.TBName, 50_000, srcs...)
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
// bound, at a depth well inside the depth limit. Every instantiation
// statement has a line of its own.
func fanOutSource(lang Language, levels int) Source {
	var sb strings.Builder
	if lang == Verilog {
		sb.WriteString("module m0; endmodule\n")
		for i := 1; i <= levels+1; i++ {
			name := fmt.Sprintf("m%d", i)
			if i == levels+1 {
				name = bench.TBName
			}
			fmt.Fprintf(&sb, "module %s;\n  m%d a();\n  m%d b();\nendmodule\n", name, i-1, i-1)
		}
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
// instead of elaborating 2^18 instances, and the diagnostic points at
// the instantiation statement that crossed the bound, not at the
// declaration of the unit it instantiates.
func TestElabFanOutBounded(t *testing.T) {
	const prefix = "ERROR: [XSIM 43-3225] elaboration failed: "
	instLine := map[Language]*regexp.Regexp{
		Verilog: regexp.MustCompile(`^  m\d+ [ab]\(\);$`),
		VHDL:    regexp.MustCompile(`^  [ab]: entity work\.e\d+;$`),
	}
	for _, lang := range []Language{Verilog, VHDL} {
		src := fanOutSource(lang, 16)
		if comp := Compile(nil, lang, src); !comp.OK {
			t.Fatalf("%s: fan-out design does not compile:\n%s", lang, comp.Log)
		}
		res := Simulate(nil, lang, bench.TBName, 1000, src)
		if !strings.HasPrefix(res.Log, prefix) ||
			!strings.Contains(res.Log, "design exceeds 4096 instances") || !res.Failed {
			t.Errorf("%s: want a failed elaboration over the instance bound, got failed=%v log:\n%s", lang, res.Failed, res.Log)
			continue
		}
		var line, col int
		if _, err := fmt.Sscanf(strings.TrimPrefix(res.Log, prefix), "%d:%d:", &line, &col); err != nil {
			t.Errorf("%s: no position in %q: %v", lang, res.Log, err)
			continue
		}
		lines := strings.Split(src.Text, "\n")
		if line < 1 || line > len(lines) || !instLine[lang].MatchString(lines[line-1]) {
			t.Errorf("%s: error points at line %d, which is not an instantiation statement:\n%s", lang, line, res.Log)
		}
	}
}
