package edatool

import (
	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// Compile parses and semantically checks the sources in order; later
// sources see modules/entities of earlier ones (DUT first, then TB).
// With a cache, unchanged units (same file name and content) reuse
// their parsed ASTs and parse diagnostics; a nil cache compiles cold.
// Semantic checks still run per call — they see the whole source set,
// which may differ even when one unit is unchanged. The cache never
// changes the result.
func Compile(cache *DesignCache, lang Language, sources ...Source) *CompileResult {
	res := &CompileResult{}
	switch lang {
	case Verilog:
		res.Modules = map[string]*verilog.Module{}
		for _, src := range sources {
			var sf *verilog.SourceFile
			var pd diag.List
			if cache != nil {
				sf, pd = parseUnit(cache, cache.vparse, src, verilog.Parse)
			} else {
				sf, pd = verilog.Parse(src.Name, src.Text)
			}
			res.Diags = append(res.Diags, pd...)
			if !pd.HasErrors() {
				cd := verilog.Check(src.Name, sf, res.Modules)
				cd.AttachSnippets(src.Text)
				res.Diags = append(res.Diags, cd...)
			}
			for _, m := range sf.Modules {
				res.Modules[m.Name] = m
			}
		}
	case VHDL:
		extern := map[string]*vhdl.Entity{}
		for _, src := range sources {
			var df *vhdl.DesignFile
			var pd diag.List
			if cache != nil {
				df, pd = parseUnit(cache, cache.hparse, src, vhdl.Parse)
			} else {
				df, pd = vhdl.Parse(src.Name, src.Text)
			}
			res.Diags = append(res.Diags, pd...)
			if !pd.HasErrors() {
				cd := vhdl.Check(src.Name, df, extern)
				cd.AttachSnippets(src.Text)
				res.Diags = append(res.Diags, cd...)
			}
			for _, e := range df.Entities {
				extern[e.Name] = e
			}
			res.Units = append(res.Units, df)
		}
	}
	res.OK = !res.Diags.HasErrors()
	res.Log = RenderCompileLog(lang, res.Diags)
	return res
}

// Simulate compiles the sources and, when clean, elaborates `top` and
// runs the simulation on the front-end's 4-state interpreter. Compile
// errors surface in the returned log. A maxTime of 0 uses the
// front-end default limit.
//
// With a cache, a request identical in language, top, sources and
// maxTime returns a copy of the memoized result without compiling or
// simulating; any other request runs cold, reusing unchanged units'
// parses, and its result is memoized. A nil cache runs everything cold.
func Simulate(cache *DesignCache, lang Language, top string, maxTime uint64, sources ...Source) *SimResult {
	if cache == nil {
		return simulate(nil, lang, top, maxTime, sources)
	}
	key := resultKey{design: designKey(lang, top, sources), maxTime: maxTime}
	if res, ok := cache.lookupResult(key); ok {
		return res
	}
	res := simulate(cache, lang, top, maxTime, sources)
	cache.storeResult(key, res)
	return res
}

// simulate is the unmemoized path behind Simulate: compile, elaborate,
// run, and judge the log.
func simulate(cache *DesignCache, lang Language, top string, maxTime uint64, sources []Source) *SimResult {
	comp := Compile(cache, lang, sources...)
	if !comp.OK {
		return &SimResult{Log: comp.Log, Failed: true}
	}
	file := sources[len(sources)-1].Name
	opts := sim.Options{MaxTime: sim.Time(maxTime), File: file}
	var out SimResult
	var end sim.Time
	var err error
	simBase := 3.2 // xsim launch + Verilog elaboration estimate, seconds
	if lang == Verilog {
		var res *vsim.Result
		if res, err = vsim.Simulate(comp.Modules, top, opts); err == nil {
			out = SimResult{Log: res.Log, TimedOut: res.TimedOut, Fault: res.Fault, VCD: res.VCD}
			end = res.EndTime
		}
	} else {
		simBase = 4.2 // mixed-language elaboration is slower
		var res *vhdlsim.Result
		if res, err = vhdlsim.Simulate(comp.Units, top, opts); err == nil {
			out = SimResult{Log: res.Log, Failed: res.AssertErrors > 0 || res.Failed, TimedOut: res.TimedOut, Fault: res.Fault}
			end = res.EndTime
		}
	}
	if err != nil {
		return &SimResult{Log: "ERROR: [XSIM 43-3225] elaboration failed: " + err.Error() + "\n", Failed: true}
	}
	out.LatencyModel = simBase + latencyFromTime(end)
	out.Passed = judgeLog(&out)
	return &out
}
