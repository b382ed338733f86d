package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/edatool"
)

// coreStates are the pipeline states whose self time is reported.
var coreStates = []string{"testbench-gen", "testbench-syntax", "zero-shot-rtl", "syntax-loop", "functional-loop"}

// layers fills res with the per-layer metrics of a traced window tw
// (win is the untraced window measured just before it, for the tracing
// overhead). Layers a workload does not run report 0.
func layers(res *result, wl workload, win, tw window, rec *recorder, suiteMs float64, workers int, stderr io.Writer) {
	stats, top := rec.summarize()
	get := func(n string) spanStat {
		if s := stats[n]; s != nil {
			return *s
		}
		return spanStat{}
	}
	cells := float64(tw.attempted)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perCell := func(d time.Duration) float64 { return ms(d) / cells }
	meanMs := func(s spanStat) float64 { return ms(s.total) / float64(s.count) }

	res.set("bench.suite_ms", suiteMs, "ms")

	var rp replayStats
	if x, ok := wl.(*inproc); ok {
		t0 := time.Now()
		rp = replay(x.x.captured, replayBudget)
		fmt.Fprintf(stderr, "perfbench: replayed %d cells in %.2fs\n", len(x.x.captured), time.Since(t0).Seconds())
	}
	for _, l := range []struct {
		mod  string
		lang edatool.Language
	}{{"verilog", edatool.Verilog}, {"vhdl", edatool.VHDL}} {
		res.set(l.mod+".parse_ms", rp.parse[l.lang].meanMs(), "ms")
		res.set(l.mod+".check_ms", rp.check[l.lang].meanMs(), "ms")
		res.set(l.mod+".parse_ns_per_byte", rp.parse[l.lang].nsPerByte(), "ns/B")
	}
	res.set("vsim.elab_ms", rp.elab[edatool.Verilog].meanMs(), "ms")
	res.set("vsim.sim_ms", rp.simulate[edatool.Verilog].meanMs(), "ms")
	res.set("vhdlsim.elab_ms", rp.elab[edatool.VHDL].meanMs(), "ms")
	res.set("vhdlsim.sim_ms", rp.simulate[edatool.VHDL].meanMs(), "ms")
	res.set("agents.log_parse_ms", rp.logParse.meanMs(), "ms")

	// Each judgement is one toolchain call: a compile for syntax, a
	// simulation against the reference testbench for functional.
	res.set("edatool.compile_ms", meanMs(get("exp.judge.syntax")), "ms")
	res.set("edatool.simulate_ms", meanMs(get("exp.judge.functional")), "ms")
	cs := tw.cache
	res.set("edatool.parse_misses", float64(cs.ParseMisses)/float64(tw.passes), "count/pass")
	res.set("edatool.parse_hit_ratio", ratio(cs.ParseHits, cs.ParseHits+cs.ParseMisses), "ratio")
	res.set("edatool.design_hit_ratio", ratio(cs.DesignHits, cs.DesignHits+cs.DesignMisses), "ratio")

	c := wl.base()
	c.log.mu.Lock()
	b := c.log.backend
	c.log.mu.Unlock()
	res.set("sim.compiled_frac", ratio(b.CompiledProcs+b.CompiledAssigns,
		b.CompiledProcs+b.InterpretedProcs+b.CompiledAssigns+b.InterpretedAssigns), "ratio")
	res.set("sim.xz_fallbacks", float64(b.Fallbacks)/cells, "count/cell")

	var llm spanStat
	for name, s := range stats {
		if strings.HasPrefix(name, "llm.") {
			llm.count += s.count
			llm.total += s.total
			llm.value += s.value
		}
	}
	res.set("llm.calls_per_cell", float64(llm.count)/cells, "count")
	res.set("llm.call_ms", meanMs(llm), "ms")
	res.set("llm.modelled_s_per_cell", llm.value/cells, "s")

	steps := 0
	for name, s := range stats {
		if strings.HasPrefix(name, "core.") {
			steps += s.count
		}
	}
	for _, st := range coreStates {
		res.set("core."+st+"_ms", perCell(get("core."+st).self), "ms")
	}
	res.set("core.steps_per_cell", float64(steps)/cells, "count")
	res.set("exp.judge_ms", perCell(get("exp.judge.syntax").total+get("exp.judge.functional").total), "ms")
	res.set("runner.worker_idle_frac", 1-float64(tw.busy)/(float64(workers)*float64(get("exp.sweep").total)), "ratio")

	for _, m := range serveMetrics {
		res.set(m.name, 0, m.unit) // measured by the repair-warm service leg
	}
	over := win.cellsPerSec() - tw.cellsPerSec()
	res.set("trace.overhead_cells_per_s", over, "1/s")
	res.set("trace.overhead_frac", over/win.cellsPerSec(), "ratio")
	cover := float64(top) / float64(tw.wall)
	res.set("trace.toplevel_cover_frac", cover, "ratio")
	if math.Abs(cover-1) > coverTolerance {
		fmt.Fprintf(stderr, "perfbench: top-level spans cover %.3f of the traced window (tolerance %.2f)\n", cover, coverTolerance)
	}
	printBreakdown(stderr, stats, tw)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printBreakdown writes the "where the time goes" table of the traced
// window: per span name, the count, total and self time.
func printBreakdown(w io.Writer, stats map[string]*spanStat, tw window) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Fprintf(w, "perfbench: traced window %.2fs, %d cells\n", tw.wall.Seconds(), tw.attempted)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "  %-24s %8d %12.1f %12.1f\n", n, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
}
