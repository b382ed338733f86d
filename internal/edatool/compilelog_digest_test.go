package edatool_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
)

// TestCompileLogDigest pins, byte for byte, the compile log of every
// source set the pipeline and the judge hand to the front-ends, for
// every suite problem in both HDLs: the golden RTL alone, with its
// judge shell and with its rendered reference testbench, a port stub
// with the reference testbench and with each model's self-generated
// testbench, and each model's zero-shot RTL followed by three blindly
// repaired revisions (the syntax-mutated variants). Parse, check and
// log rendering must reproduce these logs exactly; change want only for
// an intended change to the diagnostics.
func TestCompileLogDigest(t *testing.T) {
	const (
		want     = "a87bed541f0ea76a9eb45381348e1ed89c9250747b930f0e32724d7f55d4aec3"
		wantLogs = 5928
	)
	h := sha256.New()
	logs, failed := 0, 0
	add := func(lang edatool.Language, srcs ...edatool.Source) {
		comp := edatool.Compile(nil, lang, srcs...)
		fmt.Fprintf(h, "%t %d\n%s", comp.OK, len(comp.Log), comp.Log)
		logs++
		if !comp.OK {
			failed++
		}
	}
	blind := &llm.Feedback{Kind: llm.SyntaxFeedback}
	profiles := llm.Profiles()
	for _, p := range bench.NewSuite().Problems {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			design, tb := "design.v", "tb.v"
			golden, shell, ref := p.GoldenVerilog, p.ShellTBVerilog, p.RefTBVerilog
			stub := p.ModuleHeaderVerilog() + "\nendmodule\n"
			if lang == edatool.VHDL {
				design, tb = "design.vhd", "tb.vhd"
				golden, shell, ref = p.GoldenVHDL, p.ShellTBVHDL, p.RefTBVHDL
				stub = "library ieee;\nuse ieee.std_logic_1164.all;\n\n" + p.EntityHeaderVHDL() +
					"\n\narchitecture stub of " + bench.TopName + " is\nbegin\nend architecture;\n"
			}
			rtl := func(s string) edatool.Source { return edatool.Source{Name: design, Text: s} }
			testbench := func(s string) edatool.Source { return edatool.Source{Name: tb, Text: s} }
			add(lang, rtl(golden))
			add(lang, rtl(golden), testbench(shell))
			add(lang, rtl(golden), testbench(ref))
			add(lang, rtl(stub), testbench(ref))
			for _, prof := range profiles {
				s := prof.NewSession(llm.GenRequest{Problem: p, Language: lang})
				self, _ := s.GenerateTestbench()
				add(lang, rtl(stub), testbench(self))
				code, _ := s.GenerateRTL(nil)
				add(lang, rtl(code))
				for i := 0; i < 3; i++ {
					code, _ = s.GenerateRTL(blind)
					add(lang, rtl(code))
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d compile logs, %d with errors", logs, failed)
	if logs != wantLogs || got != want {
		t.Errorf("compile log digest %s over %d logs, want %s over %d", got, logs, want, wantLogs)
	}
	if failed == 0 {
		t.Error("no failing compile in the corpus: the digest covers no diagnostics")
	}
}
