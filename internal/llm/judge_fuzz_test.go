package llm

import (
	"math/rand"
	"testing"

	"repro/internal/edatool"
)

// FuzzJudgeDifferential judges fuzzed designs with both judges — the
// full textual reference testbench, and the judge shell with the
// stimulus driven natively — and requires the same verdict, timeout
// flag, fault class and end time (the latency model is a function of
// it). Seeds are the -short verdict corpus; each input names a problem
// and HDL, carries the design text the engine mutates, and a mutation
// seed that additionally applies one sampleMutations defect, so
// mutants stay close to designs the LLM layer produces.
func FuzzJudgeDifferential(f *testing.F) {
	index := map[string]uint16{}
	for i, p := range testSuite.Problems {
		index[p.ID] = uint16(i)
	}
	for i, c := range judgeCorpus(true) {
		f.Add(index[c.prob.ID], c.lang == edatool.VHDL, c.rtl, uint32(c.maxTime), uint64(i))
	}
	f.Fuzz(func(t *testing.T, prob uint16, vhdl bool, rtl string, maxTime uint32, mut uint64) {
		if len(rtl) > 1<<14 {
			t.Skip("design text over 16 KiB")
		}
		c := judgeCase{lang: edatool.Verilog, prob: testSuite.Problems[int(prob)%len(testSuite.Problems)], rtl: rtl}
		if vhdl {
			c.lang = edatool.VHDL
		}
		if c.maxTime = uint64(maxTime); c.maxTime == 0 || c.maxTime > judgeMaxTime {
			c.maxTime = judgeMaxTime
		}
		if mut%3 != 0 {
			// Two in three inputs also carry one modelled defect.
			kind := MutSyntax
			if mut%3 == 2 {
				kind = MutFunctional
			}
			if ms := sampleMutations(rand.New(rand.NewSource(int64(mut))), rtl, !vhdl, kind, 1); len(ms) > 0 {
				c.rtl = ms[0].Apply(rtl)
			}
		}
		text, native := judgeText(c), judge(c)
		if native.Passed != text.Passed || native.TimedOut != text.TimedOut ||
			(native.Fault != "") != (text.Fault != "") || native.LatencyModel != text.LatencyModel {
			t.Fatalf("judges disagree on %s design for %s (max time %d):\n"+
				"native:  passed=%v timedOut=%v fault=%q latency=%v\n"+
				"textual: passed=%v timedOut=%v fault=%q latency=%v\n%s",
				c.lang, c.prob.ID, c.maxTime,
				native.Passed, native.TimedOut, native.Fault, native.LatencyModel,
				text.Passed, text.TimedOut, text.Fault, text.LatencyModel, c.rtl)
		}
	})
}
