package edatool

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// judgeRuns simulates rtl under p's full textual reference testbench
// and under its judge shell with the stimulus driven natively, and
// returns both outcomes.
func judgeRuns(t *testing.T, p *bench.Problem, lang Language, rtl string) (text, native sim.Outcome) {
	t.Helper()
	opts := sim.Options{MaxTime: diffMaxTime}
	if lang == Verilog {
		run := func(tb string, stim *sim.Stimulus) sim.Outcome {
			comp := Compile(nil, lang, Source{Name: "design.v", Text: rtl}, Source{Name: "tb.v", Text: tb})
			if !comp.OK {
				t.Fatalf("%s: %s", p.ID, comp.Log)
			}
			var res *vsim.Result
			var err error
			if stim == nil {
				res, err = vsim.Simulate(comp.Modules, bench.TBName, opts)
			} else {
				res, err = vsim.SimulateStimulus(comp.Modules, bench.TBName, stim, opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", p.ID, err)
			}
			return res.Outcome
		}
		return run(p.RefTBVerilog, nil), run(p.ShellTBVerilog, p.Stimulus)
	}
	run := func(tb string, stim *sim.Stimulus) sim.Outcome {
		comp := Compile(nil, lang, Source{Name: "design.vhd", Text: rtl}, Source{Name: "tb.vhd", Text: tb})
		if !comp.OK {
			t.Fatalf("%s: %s", p.ID, comp.Log)
		}
		var res *vhdlsim.Result
		var err error
		if stim == nil {
			res, err = vhdlsim.Simulate(comp.Units, bench.TBName, opts)
		} else {
			res, err = vhdlsim.SimulateStimulus(comp.Units, bench.TBName, stim, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		return res.Outcome
	}
	return run(p.RefTBVHDL, nil), run(p.ShellTBVHDL, p.Stimulus)
}

// TestJudgeGoldenTimeline runs every golden design in both HDLs under
// the textual reference testbench and under the judge shell with the
// native stimulus: the native run must end at the same simulated time
// after the same number of kernel events, print the pass marker, and
// agree on timeout and fault.
func TestJudgeGoldenTimeline(t *testing.T) {
	for _, p := range bench.NewSuite().Problems {
		for _, lang := range []Language{Verilog, VHDL} {
			rtl := p.GoldenVerilog
			if lang == VHDL {
				rtl = p.GoldenVHDL
			}
			text, native := judgeRuns(t, p, lang, rtl)
			if native.EndTime != text.EndTime || native.Events != text.Events {
				t.Errorf("%s/%s: native run ends at %d after %d events, textual at %d after %d",
					p.ID, lang, native.EndTime, native.Events, text.EndTime, text.Events)
			}
			if native.TimedOut || native.Fault != "" || text.TimedOut || text.Fault != "" {
				t.Errorf("%s/%s: timed out or faulted (native %v %q, textual %v %q)",
					p.ID, lang, native.TimedOut, native.Fault, text.TimedOut, text.Fault)
			}
			if !strings.Contains(native.Log, PassMarker) {
				t.Errorf("%s/%s: native log lacks the pass marker:\n%s", p.ID, lang, native.Log)
			}
		}
	}
}

// TestJudgeMatchesTextualJudgement checks Judge end to end against
// Simulate under the full reference testbench, golden and defective
// designs alike: same verdict, flags and latency model, memoized or
// not.
func TestJudgeMatchesTextualJudgement(t *testing.T) {
	cache := NewDesignCache()
	for _, p := range sampleProblems(5) {
		for _, lang := range []Language{Verilog, VHDL} {
			ref := problemSources(p, lang)
			shell := Source{Name: ref[1].Name, Text: p.ShellTBVerilog}
			if lang == VHDL {
				shell.Text = p.ShellTBVHDL
			}
			rtls := []string{ref[0].Text, strings.Replace(ref[0].Text, "top_module", "other_module", 1), "garbage("}
			for _, rtl := range rtls {
				src := Source{Name: ref[0].Name, Text: rtl}
				want := Simulate(nil, lang, bench.TBName, diffMaxTime, src, ref[1])
				for pass := 0; pass < 2; pass++ {
					got := Judge(cache, lang, bench.TBName, diffMaxTime, src, shell, p.Stimulus)
					if got.Passed != want.Passed || got.Failed != want.Failed || got.TimedOut != want.TimedOut ||
						(got.Fault != "") != (want.Fault != "") || got.LatencyModel != want.LatencyModel {
						t.Errorf("%s/%s pass %d: judge %+v, textual %+v", p.ID, lang, pass,
							[]any{got.Passed, got.Failed, got.TimedOut, got.Fault, got.LatencyModel},
							[]any{want.Passed, want.Failed, want.TimedOut, want.Fault, want.LatencyModel})
					}
				}
			}
		}
	}
	if st := cache.Stats(); st.DesignHits == 0 {
		t.Errorf("second judgements never hit the memo: %+v", st)
	}
}

// TestJudgeShellMissingSignal: a stimulus port the shell does not
// declare fails the judgement as an elaboration error naming it.
func TestJudgeShellMissingSignal(t *testing.T) {
	p := bench.NewSuite().ByID("counter_up_w4")
	stim := sim.NewStimulus([]string{"nope"}, p.Stimulus.Outputs, p.Seq, 0, nil, nil)
	for _, c := range []struct {
		lang       Language
		rtl, shell string
	}{{Verilog, p.GoldenVerilog, p.ShellTBVerilog}, {VHDL, p.GoldenVHDL, p.ShellTBVHDL}} {
		res := Judge(nil, c.lang, bench.TBName, diffMaxTime, Source{Name: "design", Text: c.rtl}, Source{Name: "tb", Text: c.shell}, stim)
		if res.Passed || !res.Failed || !strings.Contains(res.Log, `no signal "nope"`) {
			t.Errorf("%s: passed=%v failed=%v log:\n%s", c.lang, res.Passed, res.Failed, res.Log)
		}
	}
}
