package edatool

import (
	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// Options is the single configuration point for a Toolchain. Every
// knob here is performance-only: none of them changes observable
// compile or simulation output, and none enters the design cache key
// or the runner's experiment fingerprints.
type Options struct {
	// Mode selects the VHDL simulation execution backend (see
	// internal/sim): the zero value (auto) compiles two-state-eligible
	// processes into flat uint64 closures with per-activation fallback
	// to the 4-state interpreter; BackendInterpret forces the
	// interpreter everywhere. Verilog always runs on the 4-state
	// interpreter and ignores Mode. Output is byte-identical across
	// modes, so Mode is deliberately not part of any cache key. No CLI
	// or pipeline sets it: it is the test seam through which the
	// differential harness runs the VHDL interpreter as the reference
	// for the VHDL compiled backend.
	Mode sim.BackendMode

	// Cache shares parse and whole-design reuse across every compile
	// and simulation this toolchain runs (see DesignCache). Nil runs
	// everything cold.
	Cache *DesignCache
}

// Toolchain is the single entry point to the EDA substrate: a
// compiler/simulator facade bound to one Options value. New(Options{})
// compiles and simulates cold under the default backend.
type Toolchain struct {
	opts Options
}

// New returns a toolchain for the given options. Toolchains are
// stateless beyond Options and safe for concurrent use (the cache, if
// any, is internally synchronized).
func New(opts Options) *Toolchain {
	return &Toolchain{opts: opts}
}

// CacheStats snapshots the toolchain cache's hit/miss counters; a
// cache-less toolchain reports the zero value.
func (tc *Toolchain) CacheStats() CacheStats {
	if tc.opts.Cache == nil {
		return CacheStats{}
	}
	return tc.opts.Cache.Stats()
}

// Compile parses and semantically checks the sources in order; later
// sources see modules/entities of earlier ones (DUT first, then TB).
// Unchanged units (same file name and content) reuse their parsed ASTs
// and parse diagnostics through the cache, if set. Semantic checks
// still run per call — they see the whole source set, which may differ
// even when one unit is unchanged.
func (tc *Toolchain) Compile(lang Language, sources ...Source) *CompileResult {
	cache := tc.opts.Cache
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
// runs the simulation under the toolchain's backend mode and cache.
// Compile errors surface in the returned log. A maxTime of 0 uses the
// front-end default limit.
//
// With a cache set it reuses prior work at every level that still
// applies: a fully identical source set skips compile and elaboration
// and re-runs the retained design from time zero; a partially changed
// set reuses unchanged units' parses. Backend mode is not part of the
// design key — a VHDL design elaborated under one mode is re-simulated
// under another with byte-identical output (the compiled programs
// themselves are cached on the design and engage only when the run's
// mode asks for them).
func (tc *Toolchain) Simulate(lang Language, top string, maxTime uint64, sources ...Source) *SimResult {
	file := sources[len(sources)-1].Name
	cache := tc.opts.Cache
	if lang == Verilog {
		var designs map[string]*vsim.Design
		if cache != nil {
			designs = cache.vdesigns
		}
		return simulate(tc, lang, top, sources, designs,
			func(comp *CompileResult) (*vsim.Design, error) {
				return vsim.Elaborate(comp.Modules, top)
			},
			func(d *vsim.Design) (*SimResult, sim.Time) {
				res := vsim.SimulateDesign(d, vsim.Options{MaxTime: sim.Time(maxTime), File: file})
				return &SimResult{
					Log:      res.Log,
					TimedOut: res.TimedOut,
					Fault:    res.Fault,
					VCD:      res.VCD,
					Backend:  res.Backend,
				}, res.EndTime
			})
	}
	var designs map[string]*vhdlsim.Design
	if cache != nil {
		designs = cache.hdesigns
	}
	return simulate(tc, lang, top, sources, designs,
		func(comp *CompileResult) (*vhdlsim.Design, error) {
			return vhdlsim.Elaborate(comp.Units, top)
		},
		func(d *vhdlsim.Design) (*SimResult, sim.Time) {
			res := vhdlsim.SimulateDesign(d, vhdlsim.Options{MaxTime: sim.Time(maxTime), File: file, Backend: tc.opts.Mode})
			return &SimResult{
				Log:      res.Log,
				Failed:   res.AssertErrors > 0 || res.Failed,
				TimedOut: res.TimedOut,
				Fault:    res.Fault,
				Backend:  res.Backend,
			}, res.EndTime
		})
}

// simulate is the language-neutral path behind Toolchain.Simulate:
// acquire a retained design from the cache (designs is the cache's map
// for this language, nil without a cache), or compile and elaborate
// one; run it; release it back; judge the log. elaborate and run are
// the front-end's steps.
func simulate[D any](tc *Toolchain, lang Language, top string, sources []Source, designs map[string]D,
	elaborate func(*CompileResult) (D, error), run func(D) (*SimResult, sim.Time)) *SimResult {
	cache := tc.opts.Cache
	var key string
	var d D
	var hit bool
	if cache != nil {
		key = designKey(lang, top, sources)
		d, hit = acquireDesign(cache, designs, key)
	}
	if !hit {
		comp := tc.Compile(lang, sources...)
		if !comp.OK {
			return &SimResult{Log: comp.Log, Failed: true}
		}
		var err error
		if d, err = elaborate(comp); err != nil {
			return &SimResult{Log: "ERROR: [XSIM 43-3225] elaboration failed: " + err.Error() + "\n", Failed: true}
		}
	}
	out, end := run(d)
	if cache != nil {
		releaseDesign(cache, designs, key, d)
	}
	simBase := 3.2 // xsim launch + Verilog elaboration estimate, seconds
	if lang == VHDL {
		simBase = 4.2 // mixed-language elaboration is slower
	}
	out.LatencyModel = simBase + latencyFromTime(end)
	out.Passed = judgeLog(out)
	return out
}
