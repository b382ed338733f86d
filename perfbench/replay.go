package main

import (
	"time"

	"repro/internal/agents"
	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm/provider"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// capturedCell is the source set one traced cell produced: every
// artefact the LLM generated, in order.
type capturedCell struct {
	prob       *bench.Problem
	lang       edatool.Language
	maxSimTime uint64
	code       []capturedCode
}

// layerTime accumulates one replayed layer: calls, time and bytes.
type layerTime struct {
	n     int
	d     time.Duration
	bytes int
}

func (l *layerTime) add(t0 time.Time, bytes int) {
	l.n++
	l.d += time.Since(t0)
	l.bytes += bytes
}

// meanMs is the mean time per call in milliseconds.
func (l layerTime) meanMs() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.d) / float64(l.n) / 1e6
}

// nsPerByte is the time per input byte.
func (l layerTime) nsPerByte() float64 {
	if l.bytes == 0 {
		return 0
	}
	return float64(l.d) / float64(l.bytes)
}

// replayStats holds the front-end, simulator and agent timings of one
// replay, indexed by language where it applies.
type replayStats struct {
	parse, check, elab, simulate [2]layerTime
	logParse                     layerTime
}

// replay feeds the captured source sets through the public front-end,
// simulator and agent functions, one layer at a time, so each layer's
// cost is measured on exactly the sources the run saw. Every distinct
// source text (generated artefacts and reference testbenches) is parsed
// once; each cell's final RTL is then checked, elaborated and
// simulated against its last self-generated testbench and against the
// reference testbench, and the resulting logs go through the agents'
// log parsers. Replay stops starting simulations once budget is spent.
func replay(cells []capturedCell, budget time.Duration) replayStats {
	var st replayStats
	deadline := time.Now().Add(budget)
	vparsed := map[string]*verilog.SourceFile{}
	hparsed := map[string]*vhdl.DesignFile{}

	// parse returns whether text parsed cleanly, parsing on first sight.
	parse := func(lang edatool.Language, name, text string) bool {
		if lang == edatool.Verilog {
			if sf, seen := vparsed[text]; seen {
				return sf != nil
			}
			t0 := time.Now()
			sf, diags := verilog.Parse(name, text)
			st.parse[lang].add(t0, len(text))
			if diags.HasErrors() {
				st.logParse.addLog(edatool.RenderCompileLog(lang, diags), true)
				sf = nil
			}
			vparsed[text] = sf
			return sf != nil
		}
		if df, seen := hparsed[text]; seen {
			return df != nil
		}
		t0 := time.Now()
		df, diags := vhdl.Parse(name, text)
		st.parse[lang].add(t0, len(text))
		if diags.HasErrors() {
			st.logParse.addLog(edatool.RenderCompileLog(lang, diags), true)
			df = nil
		}
		hparsed[text] = df
		return df != nil
	}

	for _, c := range cells {
		lang := c.lang
		ref, designName, tbName := c.prob.RefTBVerilog, "design.v", "tb.v"
		if lang == edatool.VHDL {
			ref, designName, tbName = c.prob.RefTBVHDL, "design.vhd", "tb.vhd"
		}
		parse(lang, tbName, ref)
		var rtl, tb string
		for _, code := range c.code {
			name := designName
			if code.op == provider.OpGenerateRTL {
				rtl = code.text
			} else {
				name = tbName
				tb = code.text
			}
			parse(lang, name, code.text)
		}
		for _, tbText := range []string{tb, ref} {
			if rtl == "" || tbText == "" || time.Now().After(deadline) {
				continue
			}
			if !parse(lang, designName, rtl) || !parse(lang, tbName, tbText) {
				continue
			}
			if lang == edatool.Verilog {
				st.simVerilog(vparsed[rtl], vparsed[tbText], c.maxSimTime)
			} else {
				st.simVHDL(hparsed[rtl], hparsed[tbText], c.maxSimTime)
			}
		}
	}
	return st
}

func (l *layerTime) addLog(log string, compile bool) {
	t0 := time.Now()
	if compile {
		agents.ReviewAgent{}.ParseCompileLog(log)
	} else {
		agents.VerificationAgent{}.ParseSimLog(log)
	}
	l.add(t0, len(log))
}

func (st *replayStats) simVerilog(design, tb *verilog.SourceFile, maxSimTime uint64) {
	const lang = edatool.Verilog
	modules := map[string]*verilog.Module{}
	for i, sf := range []*verilog.SourceFile{design, tb} {
		t0 := time.Now()
		diags := verilog.Check([]string{"design.v", "tb.v"}[i], sf, modules)
		st.check[lang].add(t0, 0)
		if diags.HasErrors() {
			st.logParse.addLog(edatool.RenderCompileLog(lang, diags), true)
			return
		}
		for _, m := range sf.Modules {
			modules[m.Name] = m
		}
	}
	t0 := time.Now()
	d, err := vsim.Elaborate(modules, bench.TBName)
	st.elab[lang].add(t0, 0)
	if err != nil {
		return
	}
	t0 = time.Now()
	res := vsim.SimulateDesign(d, vsim.Options{MaxTime: sim.Time(maxSimTime), File: "tb.v"})
	st.simulate[lang].add(t0, 0)
	st.logParse.addLog(res.Log, false)
}

func (st *replayStats) simVHDL(design, tb *vhdl.DesignFile, maxSimTime uint64) {
	const lang = edatool.VHDL
	extern := map[string]*vhdl.Entity{}
	for i, df := range []*vhdl.DesignFile{design, tb} {
		t0 := time.Now()
		diags := vhdl.Check([]string{"design.vhd", "tb.vhd"}[i], df, extern)
		st.check[lang].add(t0, 0)
		if diags.HasErrors() {
			st.logParse.addLog(edatool.RenderCompileLog(lang, diags), true)
			return
		}
		for _, e := range df.Entities {
			extern[e.Name] = e
		}
	}
	t0 := time.Now()
	d, err := vhdlsim.Elaborate([]*vhdl.DesignFile{design, tb}, bench.TBName)
	st.elab[lang].add(t0, 0)
	if err != nil {
		return
	}
	t0 = time.Now()
	res := vhdlsim.SimulateDesign(d, vhdlsim.Options{MaxTime: sim.Time(maxSimTime), File: "tb.vhd"})
	st.simulate[lang].add(t0, 0)
	st.logParse.addLog(res.Log, false)
}
