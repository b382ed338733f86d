package edatool

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/diag"
)

// checkCompile is the contract every compile honours, whatever the
// source: Compile returns (a panic fails the fuzz run), its log opens
// with the start line and ends in the summary that matches its error
// count, and a compile through a design cache — fresh, then reused, so
// the second call runs on the first one's memoized parses — renders
// the same result as a compile without one.
func checkCompile(t *testing.T, lang Language, design, tb string) {
	srcs := []Source{{Name: "design.v", Text: design}, {Name: "tb.v", Text: tb}}
	tool := "xvlog"
	if lang == VHDL {
		srcs = []Source{{Name: "design.vhd", Text: design}, {Name: "tb.vhd", Text: tb}}
		tool = "xvhdl"
	}
	cold := Compile(nil, lang, srcs...)
	errs := 0
	for _, d := range cold.Diags {
		if d.Severity == diag.Error {
			errs++
		}
	}
	summary := fmt.Sprintf("Total syntax errors: %d\nINFO: [%s] Compilation failed with %d error(s)\n", errs, tool, errs)
	if errs == 0 {
		summary = "Total syntax errors: 0\nSuccessful compilation.\n"
	}
	if cold.OK != (errs == 0) || !strings.HasSuffix(cold.Log, summary) ||
		!strings.HasPrefix(cold.Log, "INFO: ["+tool+"] Compilation started\n") {
		t.Fatalf("OK %t with %d errors, log:\n%s", cold.OK, errs, cold.Log)
	}
	cache := NewDesignCache()
	for pass, label := range []string{"fresh cache", "reused cache"} {
		warm := Compile(cache, lang, srcs...)
		if warm.OK != cold.OK || warm.Log != cold.Log {
			t.Fatalf("%s: OK %t, log:\n%s\nwant OK %t, log:\n%s", label, warm.OK, warm.Log, cold.OK, cold.Log)
		}
		if st := cache.Stats(); st.ParseHits != 2*pass {
			t.Fatalf("%s: %d parse hits, want %d", label, st.ParseHits, 2*pass)
		}
	}
}

// addCompileSeeds seeds a compile fuzzer with the suite's three
// smallest problems: golden RTL under its judge shell and under its
// reference testbench, a port stub under the reference testbench, and
// an RTL with its last statement terminator dropped, under the shell
// and as both units (the parse memo must key on the file name too, or
// the testbench would report the design's file).
func addCompileSeeds(f *testing.F, lang Language) {
	probs := bench.NewSuite().Problems
	golden := func(p *bench.Problem) string {
		if lang == VHDL {
			return p.GoldenVHDL
		}
		return p.GoldenVerilog
	}
	sort.SliceStable(probs, func(i, j int) bool { return len(golden(probs[i])) < len(golden(probs[j])) })
	for _, p := range probs[:3] {
		rtl, shell, ref := p.GoldenVerilog, p.ShellTBVerilog, p.RefTBVerilog
		stub := p.ModuleHeaderVerilog() + "\nendmodule\n"
		if lang == VHDL {
			rtl, shell, ref = p.GoldenVHDL, p.ShellTBVHDL, p.RefTBVHDL
			stub = p.EntityHeaderVHDL()
		}
		f.Add(rtl, shell)
		f.Add(rtl, ref)
		f.Add(stub, ref)
		if i := strings.LastIndex(rtl, ";"); i >= 0 {
			broken := rtl[:i] + rtl[i+1:]
			f.Add(broken, shell)
			f.Add(broken, broken)
		}
	}
}

// FuzzCompileVerilog checks checkCompile's contract on arbitrary
// Verilog design and testbench pairs.
func FuzzCompileVerilog(f *testing.F) {
	addCompileSeeds(f, Verilog)
	f.Fuzz(func(t *testing.T, design, tb string) { checkCompile(t, Verilog, design, tb) })
}

// FuzzCompileVHDL checks checkCompile's contract on arbitrary VHDL
// design and testbench pairs.
func FuzzCompileVHDL(f *testing.F) {
	addCompileSeeds(f, VHDL)
	f.Fuzz(func(t *testing.T, design, tb string) { checkCompile(t, VHDL, design, tb) })
}
