package sim_test

// The differential harness. Each HDL runs on one executor, its 4-state
// interpreter, so the axes are elaboration and reuse: a randomly
// generated multi-cluster Verilog design or a real bench problem in
// either HDL simulated cold must match, byte for byte, a fresh design
// elaborated a second time from the same parse (logs, VCD waveforms,
// final signal values, event counts, end times and stop flags) and a
// warm memo hit through a shared edatool.DesignCache (log, VCD, verdict
// and latency model).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// simOutcome is the full observable outcome of one run in either HDL.
type simOutcome struct {
	log     string
	vcd     string
	events  uint64
	endTime uint64
	final   map[string]string
	flags   string
}

// verilogOutcome and vhdlOutcome record a run as it ended, fault
// included; outcomeOf and vhdlOutcomeOf additionally require that it
// did not fault.
func verilogOutcome(res *vsim.Result) simOutcome {
	return simOutcome{
		log:     res.Log,
		vcd:     res.VCD,
		events:  res.Events,
		endTime: uint64(res.EndTime),
		final:   res.Final,
		flags:   fmt.Sprintf("fin=%v stop=%v to=%v fault=%q", res.Finished, res.Stopped, res.TimedOut, res.Fault),
	}
}

func vhdlOutcome(res *vhdlsim.Result) simOutcome {
	return simOutcome{
		log:     res.Log,
		events:  res.Events,
		endTime: uint64(res.EndTime),
		final:   res.Final,
		flags:   fmt.Sprintf("asserts=%d failed=%v to=%v fault=%q", res.AssertErrors, res.Failed, res.TimedOut, res.Fault),
	}
}

func outcomeOf(t *testing.T, name, src string, res *vsim.Result) simOutcome {
	t.Helper()
	if res.Fault != "" {
		t.Fatalf("%s faulted (harness designs must be valid): %s\nsource:\n%s", name, res.Fault, src)
	}
	return verilogOutcome(res)
}

func vhdlOutcomeOf(t *testing.T, name string, res *vhdlsim.Result) simOutcome {
	t.Helper()
	if res.Fault != "" {
		t.Fatalf("%s faulted: %s", name, res.Fault)
	}
	return vhdlOutcome(res)
}

// compileOne compiles src as a single unit and fails the test on
// diagnostics.
func compileOne(t *testing.T, lang edatool.Language, name, src string) *edatool.CompileResult {
	t.Helper()
	comp := edatool.Compile(nil, lang, edatool.Source{Name: name, Text: src})
	if !comp.OK {
		t.Fatalf("%s does not compile:\n%s\nsource:\n%s", name, comp.Log, src)
	}
	return comp
}

// runVerilog elaborates and simulates src cold, then elaborates the
// same parse a second time and simulates that fresh design, returning
// both outcomes.
func runVerilog(t *testing.T, name, src string) (cold, fresh simOutcome) {
	t.Helper()
	comp := compileOne(t, edatool.Verilog, name, src)
	run := func() simOutcome {
		res, err := vsim.Simulate(comp.Modules, bench.TBName, vsim.Options{CaptureFinal: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return outcomeOf(t, name, src, res)
	}
	return run(), run()
}

// runVHDL is runVerilog through the VHDL front-end.
func runVHDL(t *testing.T, name, src string) (cold, fresh simOutcome) {
	t.Helper()
	comp := compileOne(t, edatool.VHDL, name, src)
	run := func() simOutcome {
		res, err := vhdlsim.Simulate(comp.Units, bench.TBName, vhdlsim.Options{CaptureFinal: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return vhdlOutcomeOf(t, name, res)
	}
	return run(), run()
}

// diffWarmCache simulates src twice through cache, which the caller
// shares across designs: the first run simulates and memoizes its
// result, the second must be a cache hit that reports what the first
// did.
func diffWarmCache(t *testing.T, cache *edatool.DesignCache, lang edatool.Language, name, src string) {
	t.Helper()
	ext := ".v"
	if lang == edatool.VHDL {
		ext = ".vhd"
	}
	unit := edatool.Source{Name: name + ext, Text: src}
	cold := edatool.Simulate(cache, lang, bench.TBName, 0, unit)
	before := cache.Stats()
	warm := edatool.Simulate(cache, lang, bench.TBName, 0, unit)
	if hits := cache.Stats().Sub(before).DesignHits; hits != 1 {
		t.Errorf("%s: warm rerun made %d design-cache hits, want 1", name, hits)
	}
	if warm.Log != cold.Log {
		t.Errorf("%s: warm-cache log differs:\n--- cold ---\n%s\n--- warm ---\n%s", name, cold.Log, warm.Log)
	}
	if warm.VCD != cold.VCD {
		t.Errorf("%s: warm-cache VCD differs", name)
	}
	// The latency model is a function of the run's end time.
	if warm.LatencyModel != cold.LatencyModel || warm.Passed != cold.Passed ||
		warm.Failed != cold.Failed || warm.TimedOut != cold.TimedOut {
		t.Errorf("%s: warm-cache result %+v, cold %+v", name, warm, cold)
	}
}

func diffOutcomes(t *testing.T, name string, ref, got simOutcome) {
	t.Helper()
	if got.log != ref.log {
		t.Errorf("%s: log differs:\n--- reference ---\n%s\n--- got ---\n%s", name, ref.log, got.log)
	}
	if got.vcd != ref.vcd {
		t.Errorf("%s: VCD differs", name)
	}
	if got.events != ref.events {
		t.Errorf("%s: event count %d, want %d", name, got.events, ref.events)
	}
	if got.endTime != ref.endTime {
		t.Errorf("%s: end time %d, want %d", name, got.endTime, ref.endTime)
	}
	if got.flags != ref.flags {
		t.Errorf("%s: stop flags %q, want %q", name, got.flags, ref.flags)
	}
	for sig, want := range ref.final {
		if got.final[sig] != want {
			t.Errorf("%s: final %s = %s, want %s", name, sig, got.final[sig], want)
		}
	}
	if len(got.final) != len(ref.final) {
		t.Errorf("%s: %d final signals, want %d", name, len(got.final), len(ref.final))
	}
}

// genClusterDesign emits a random Verilog design of several independent
// clusters — each with its own clock, state, logging, and $random
// draws — plus a finisher process. The shapes cover the interactions
// most likely to diverge on a rerun: NBA vs blocking assignment order,
// continuous-assignment chains, same-timestamp activity across
// clusters, $monitor, zero delays, the $random stream, and a $finish
// cut that truncates every cluster at the same delta.
func genClusterDesign(rng *rand.Rand) string {
	var sb strings.Builder
	nclusters := 2 + rng.Intn(3)
	ops := []string{"+", "-", "^", "&", "|"}
	for c := 0; c < nclusters; c++ {
		w := 4 + rng.Intn(13)
		period := 2 + rng.Intn(4)
		op1 := ops[rng.Intn(len(ops))]
		op2 := ops[rng.Intn(len(ops))]
		inc := 1 + rng.Intn(7)
		fmt.Fprintf(&sb, "module cluster%d;\n", c)
		fmt.Fprintf(&sb, "  reg clk; reg [%d:0] a, b;\n", w-1)
		fmt.Fprintf(&sb, "  wire [%d:0] m;\n", w-1)
		fmt.Fprintf(&sb, "  assign m = a %s b;\n", op2)
		fmt.Fprintf(&sb, "  initial begin clk = 0; a = 0; b = %d'd%d; end\n", w, rng.Intn(1<<uint(min(w, 16))))
		fmt.Fprintf(&sb, "  always #%d clk = ~clk;\n", period)
		sb.WriteString("  always @(posedge clk) begin\n")
		fmt.Fprintf(&sb, "    a <= a + %d;\n", inc)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "    b <= b %s (a + %d);\n", op1, rng.Intn(5))
		} else {
			fmt.Fprintf(&sb, "    b = b %s a;\n", op1)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, "    if (a[0]) b <= $random;\n")
		}
		fmt.Fprintf(&sb, "    $display(\"c%d a=%%0d b=%%0h m=%%0d t=%%0t\", a, b, m, $time);\n", c)
		sb.WriteString("  end\n")
		if rng.Intn(3) == 0 {
			// A second process in the same cluster, racing the first
			// through the shared delta schedule.
			fmt.Fprintf(&sb, "  always @(negedge clk) $display(\"c%d neg a=%%0d\", a);\n", c)
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, "  initial begin #%d $monitor(\"c%d mon m=%%0d t=%%0t\", m, $time); end\n", 1+rng.Intn(9), c)
		}
		sb.WriteString("endmodule\n")
	}
	sb.WriteString("module tb;\n")
	for c := 0; c < nclusters; c++ {
		fmt.Fprintf(&sb, "  cluster%d u%d();\n", c, c)
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("  initial begin $dumpfile(\"w.vcd\"); $dumpvars; end\n")
	}
	fmt.Fprintf(&sb, "  initial begin #%d $display(\"tb done t=%%0t\", $time); $finish; end\n", 20+rng.Intn(41))
	sb.WriteString("endmodule\n")
	return sb.String()
}

// TestDifferentialRandomClusters is the core of the harness: randomly
// generated multi-cluster designs, cold vs a fresh re-elaboration vs a
// warm shared design cache.
func TestDifferentialRandomClusters(t *testing.T) {
	designs := 24
	if testing.Short() {
		designs = 8
	}
	cache := edatool.NewDesignCache()
	for i := 0; i < designs; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i*131)))
		src := genClusterDesign(rng)
		name := fmt.Sprintf("clusters-%d", i)
		cold, fresh := runVerilog(t, name, src)
		if !strings.Contains(cold.log, "$finish called") {
			t.Fatalf("%s: cold run did not finish:\n%s", name, cold.log)
		}
		diffOutcomes(t, name+"/fresh", cold, fresh)
		diffWarmCache(t, cache, edatool.Verilog, name, src)
	}
}

// TestDifferentialBenchVerilog replays real bench-suite problems
// (golden DUT + reference testbench) cold, freshly re-elaborated, and
// through a warm shared design cache.
func TestDifferentialBenchVerilog(t *testing.T) {
	suite := bench.NewSuite()
	stride := 8
	if testing.Short() {
		stride = 32
	}
	cache := edatool.NewDesignCache()
	for i := 0; i < len(suite.Problems); i += stride {
		p := suite.Problems[i]
		src := p.GoldenVerilog + "\n" + p.RefTBVerilog
		cold, fresh := runVerilog(t, p.ID, src)
		diffOutcomes(t, p.ID+"/fresh", cold, fresh)
		diffWarmCache(t, cache, edatool.Verilog, p.ID, src)
	}
}

// TestDifferentialBenchVHDL does the same through the VHDL front-end:
// cold, freshly re-elaborated, and through a warm shared design cache.
func TestDifferentialBenchVHDL(t *testing.T) {
	suite := bench.NewSuite()
	stride := 12
	if testing.Short() {
		stride = 48
	}
	cache := edatool.NewDesignCache()
	for i := 0; i < len(suite.Problems); i += stride {
		p := suite.Problems[i]
		src := p.GoldenVHDL + "\n" + p.RefTBVHDL
		cold, fresh := runVHDL(t, p.ID, src)
		diffOutcomes(t, p.ID+"/fresh", cold, fresh)
		diffWarmCache(t, cache, edatool.VHDL, p.ID, src)
	}
}

// TestDifferentialRepeatable pins run-to-run determinism: two
// independent cold compiles of the same design, and the fresh
// re-elaboration of each, must agree byte for byte.
func TestDifferentialRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	src := genClusterDesign(rng)
	a, aFresh := runVerilog(t, "repeat", src)
	b, bFresh := runVerilog(t, "repeat", src)
	diffOutcomes(t, "repeat/cold", a, b)
	diffOutcomes(t, "repeat/fresh", a, aFresh)
	diffOutcomes(t, "repeat/fresh", b, bFresh)
}
