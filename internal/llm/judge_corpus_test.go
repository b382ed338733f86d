package llm

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdicts.txt from the current judge")

const verdictFile = "testdata/verdicts.txt"

// judgeMaxTime is the simulated-time limit of the suite judgement
// (core.DefaultConfig's MaxSimTime).
const judgeMaxTime = 200_000

// judgeCase is one candidate design judged against a problem's
// reference testbench.
type judgeCase struct {
	name    string
	lang    edatool.Language
	prob    *bench.Problem
	rtl     string
	maxTime uint64
}

// verdict is the part of a judgement the corpus pins: the pass
// verdict, the timeout flag and whether the run faulted.
func verdict(r *edatool.SimResult) string {
	flag := func(b bool, c byte) byte {
		if b {
			return c
		}
		return '-'
	}
	return string([]byte{flag(r.Passed, 'P'), flag(r.TimedOut, 'T'), flag(r.Fault != "", 'F')})
}

// judge runs the suite judgement of c.rtl the way
// core.EvaluateFunctionalWith does: the judge shell with the stimulus
// driven natively.
func judge(c judgeCase) *edatool.SimResult {
	design, tb, shell := "design.v", "tb.v", c.prob.ShellTBVerilog
	if c.lang == edatool.VHDL {
		design, tb, shell = "design.vhd", "tb.vhd", c.prob.ShellTBVHDL
	}
	return edatool.Judge(nil, c.lang, bench.TBName, c.maxTime,
		edatool.Source{Name: design, Text: c.rtl}, edatool.Source{Name: tb, Text: shell}, c.prob.Stimulus)
}

// judgeText judges c against the problem's textual reference
// testbench.
func judgeText(c judgeCase) *edatool.SimResult {
	design, tb, ref := "design.v", "tb.v", c.prob.RefTBVerilog
	if c.lang == edatool.VHDL {
		design, tb, ref = "design.vhd", "tb.vhd", c.prob.RefTBVHDL
	}
	return edatool.Simulate(nil, c.lang, bench.TBName, c.maxTime,
		edatool.Source{Name: design, Text: c.rtl}, edatool.Source{Name: tb, Text: ref})
}

// golden returns the problem's golden design in lang.
func golden(p *bench.Problem, lang edatool.Language) string {
	if lang == edatool.VHDL {
		return p.GoldenVHDL
	}
	return p.GoldenVerilog
}

// judgeCorpus enumerates the verdict corpus. For every problem and
// both HDLs: the golden design, two syntax and three functional
// mutants drawn by sampleMutations, and the port-level defects
// (undriven outputs, a widened output, a missing and an extra port) and
// DUT-side testbench interference ($finish, failure text, VHDL
// report severities). The costly runtime defects — an oscillator past
// the time limit, a zero-delay loop, a statement-budget loop, output
// spam past the log cap and a time limit shorter than the testbench —
// run on a few problems of each kind. short keeps every eighth problem
// (gate_and among them, with its runtime defects).
func judgeCorpus(short bool) []judgeCase {
	var cases []judgeCase
	heavy := map[string]bool{"gate_and": true, "adder_w8": true, "counter_up_w4": true, "fsm_serial_parity": true}
	for i, p := range testSuite.Problems {
		if short && i%8 != 0 {
			continue
		}
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			verilog := lang == edatool.Verilog
			prefix := strings.ToLower(lang.String()) + "/" + p.ID + "/"
			add := func(name, rtl string, maxTime uint64) {
				cases = append(cases, judgeCase{name: prefix + name, lang: lang, prob: p, rtl: rtl, maxTime: maxTime})
			}
			g := golden(p, lang)
			add("golden", g, judgeMaxTime)
			rng := rand.New(rand.NewSource(int64(7000 + 2*i + int(lang))))
			for k, kind := range []MutKind{MutSyntax, MutSyntax, MutFunctional, MutFunctional, MutFunctional} {
				muts := sampleMutations(rng, g, verilog, kind, 1)
				if len(muts) == 0 {
					continue
				}
				add(fmt.Sprintf("mutant%d", k), muts[0].Apply(g), judgeMaxTime)
			}
			for _, d := range portDefects(p, lang) {
				add(d.name, d.rtl, judgeMaxTime)
			}
			for _, d := range dutInjections(lang) {
				add(d.name, inject(g, lang, d.decl, d.stmt), judgeMaxTime)
			}
			if heavy[p.ID] {
				for _, d := range runtimeDefects(lang) {
					add(d.name, inject(g, lang, d.decl, d.stmt), judgeMaxTime)
				}
				add("golden_short_limit", g, 37)
			}
		}
	}
	return cases
}

type namedRTL struct{ name, rtl string }

// portDefects renders designs whose interface departs from the
// problem's: a body that drives nothing, a first output one bit wider
// than declared (driven to zero), a missing first input, and the
// golden with an extra unconnected input.
func portDefects(p *bench.Problem, lang edatool.Language) []namedRTL {
	outs, ins := p.Outputs(), p.Inputs()
	widen := func(pt bench.Port) bench.Port {
		if pt.Name == outs[0].Name {
			pt.Width++
		}
		return pt
	}
	drop := func(pt bench.Port) (bench.Port, bool) { return pt, len(ins) == 0 || pt.Name != ins[0].Name }
	keep := func(pt bench.Port) (bench.Port, bool) { return pt, true }
	wide := func(pt bench.Port) (bench.Port, bool) { return widen(pt), true }
	if lang == edatool.Verilog {
		return []namedRTL{
			{"undriven", stubVerilog(p, keep, false)},
			{"wide_output", stubVerilog(p, wide, true)},
			{"missing_port", stubVerilog(p, drop, true)},
			{"extra_port", strings.Replace(p.GoldenVerilog, "module top_module(", "module top_module(\n    input extra_in,", 1)},
		}
	}
	return []namedRTL{
		{"undriven", stubVHDL(p, keep, false)},
		{"wide_output", stubVHDL(p, wide, true)},
		{"missing_port", stubVHDL(p, drop, true)},
		{"extra_port", strings.Replace(p.GoldenVHDL, "  port (\n", "  port (\n    extra_in : in std_logic;\n", 1)},
	}
}

// stubVerilog renders top_module over the ports f keeps (f may also
// reshape them); with drive, every output is assigned zero.
func stubVerilog(p *bench.Problem, f func(bench.Port) (bench.Port, bool), drive bool) string {
	var ports, body []string
	for _, pt := range p.Ports {
		pt, ok := f(pt)
		if !ok {
			continue
		}
		dir := "output"
		if pt.In {
			dir = "input"
		}
		ports = append(ports, fmt.Sprintf("%s [%d:0] %s", dir, pt.Width-1, pt.Name))
		if drive && !pt.In {
			body = append(body, fmt.Sprintf("  assign %s = 0;\n", pt.Name))
		}
	}
	return "module top_module(" + strings.Join(ports, ", ") + ");\n" + strings.Join(body, "") + "endmodule\n"
}

// stubVHDL is stubVerilog for a VHDL entity and architecture.
func stubVHDL(p *bench.Problem, f func(bench.Port) (bench.Port, bool), drive bool) string {
	var ports, body []string
	for _, pt := range p.Ports {
		pt, ok := f(pt)
		if !ok {
			continue
		}
		dir, ty := "out", "std_logic"
		if pt.In {
			dir = "in"
		}
		if pt.Width > 1 {
			ty = fmt.Sprintf("std_logic_vector(%d downto 0)", pt.Width-1)
		}
		ports = append(ports, fmt.Sprintf("%s : %s %s", pt.Name, dir, ty))
		if drive && !pt.In {
			zero := "'0'"
			if pt.Width > 1 {
				zero = "(others => '0')"
			}
			body = append(body, fmt.Sprintf("  %s <= %s;\n", pt.Name, zero))
		}
	}
	return "library ieee;\nuse ieee.std_logic_1164.all;\n\nentity top_module is\n  port (" +
		strings.Join(ports, "; ") + ");\nend entity;\n\narchitecture stub of top_module is\nbegin\n" +
		strings.Join(body, "") + "end architecture;\n"
}

// injection is design text added to the golden's top module: a
// declaration and a concurrent statement (VHDL) or module items
// (Verilog, stmt only).
type injection struct{ name, decl, stmt string }

// dutInjections interfere with the testbench from inside the DUT
// without touching its function.
func dutInjections(lang edatool.Language) []injection {
	if lang == edatool.Verilog {
		return []injection{
			{name: "dut_finish", stmt: "  initial #23 $finish;\n"},
			{name: "dut_prints_error", stmt: "  initial #2 $display(\"ERROR: injected\");\n"},
			{name: "dut_prints_fail", stmt: "  initial #2 $display(\"FAIL injected\");\n"},
			{name: "dut_prints_note", stmt: "  initial #2 $display(\"note from the design\");\n"},
		}
	}
	return []injection{
		{name: "dut_report_error", stmt: "  inj: process begin wait for 2 ns; report \"injected\" severity error; wait; end process;\n"},
		{name: "dut_report_failure", stmt: "  inj: process begin wait for 23 ns; report \"injected\" severity failure; wait; end process;\n"},
		{name: "dut_prints_fail", stmt: "  inj: process begin wait for 2 ns; report \"FAIL injected\"; wait; end process;\n"},
		{name: "dut_prints_note", stmt: "  inj: process begin wait for 2 ns; report \"note from the design\"; wait; end process;\n"},
	}
}

// runtimeDefects are the costly runaway designs: an oscillator that
// outlives the testbench, a zero-delay (delta) loop, a statement-budget
// loop and output spam past the 1 MiB log cap.
func runtimeDefects(lang edatool.Language) []injection {
	if lang == edatool.Verilog {
		return []injection{
			{name: "oscillator", stmt: "  reg osc_r = 0;\n  always #1 osc_r = ~osc_r;\n"},
			{name: "delta_loop", stmt: "  reg zl_a = 0;\n  always @(zl_a) zl_a <= ~zl_a;\n  initial #3 zl_a = 1;\n"},
			{name: "budget_loop", stmt: "  initial #4 while (1) begin end\n"},
			{name: "log_spam", stmt: "  integer spam_i;\n  initial for (spam_i = 0; spam_i < 30000; spam_i = spam_i + 1) $display(\"spam spam spam spam spam spam spam\");\n"},
		}
	}
	return []injection{
		{name: "oscillator", decl: "  signal osc_s : std_logic := '0';\n", stmt: "  osc_s <= not osc_s after 1 ns;\n"},
		{name: "delta_loop", decl: "  signal zl_s : std_logic := '0';\n", stmt: "  zl_s <= not zl_s;\n"},
		{name: "budget_loop", stmt: "  bl: process begin wait for 4 ns; while true loop null; end loop; wait; end process;\n"},
		{name: "log_spam", stmt: "  sp: process begin for i in 0 to 30000 loop report \"spam spam spam spam spam spam\"; end loop; wait; end process;\n"},
	}
}

// inject adds an injection to a golden design: Verilog items go before
// the (single) endmodule; VHDL declarations go at the top of the
// architecture's declarative part and statements before its end.
func inject(src string, lang edatool.Language, decl, stmt string) string {
	if lang == edatool.Verilog {
		i := strings.LastIndex(src, "endmodule")
		return src[:i] + stmt + src[i:]
	}
	if decl != "" {
		a := strings.Index(src, "architecture ")
		nl := a + strings.Index(src[a:], "\n") + 1
		src = src[:nl] + decl + src[nl:]
	}
	i := strings.LastIndex(src, "end architecture")
	return src[:i] + stmt + src[i:]
}

// TestJudgeVerdictCorpus pins the suite judgement of every corpus case
// in testdata/verdicts.txt, one "case flags" line each: P passed, T
// timed out, F faulted ('-' when not). The pins were recorded from the
// judge that interprets the full textual reference testbench, so any
// judge that replaces it must reproduce them unchanged. -short checks
// every eighth problem. Rewrite with -update-verdicts only when a
// verdict change is intended.
func TestJudgeVerdictCorpus(t *testing.T) {
	short := testing.Short() && !*updateVerdicts
	var got []string
	for _, c := range judgeCorpus(short) {
		got = append(got, c.name+" "+verdict(judge(c)))
	}
	if *updateVerdicts {
		if err := os.WriteFile(verdictFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(verdictFile)
	if err != nil {
		t.Fatalf("verdict pins: %v", err)
	}
	want := map[string]string{}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, line := range lines {
		name, flags, _ := strings.Cut(line, " ")
		want[name] = flags
	}
	if !short && len(got) != len(lines) {
		t.Errorf("%d cases, pin file has %d", len(got), len(lines))
	}
	for _, line := range got {
		name, flags, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned verdict", name)
		} else if flags != w {
			t.Errorf("%s: verdict %s, pinned %s", name, flags, w)
		}
	}
}
