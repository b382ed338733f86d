package sim_test

// The differential harness. Verilog runs on one executor, the 4-state
// interpreter, so its axis is reuse: a randomly generated multi-cluster
// design or a real bench problem simulated cold must match, byte for
// byte, a rerun of the same retained design after Design.Reset and a
// warm rerun through a shared edatool.DesignCache (logs, VCD waveforms,
// final signal values, event counts and end times). VHDL keeps a
// compiled two-state backend, so its bench problems still compare the
// default backend against the 4-state interpreter.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/sim"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// simOutcome is the full observable outcome of one Verilog run.
type simOutcome struct {
	log     string
	vcd     string
	events  uint64
	endTime uint64
	final   map[string]string
	flags   string
}

func outcomeOf(t *testing.T, name, src string, res *vsim.Result) simOutcome {
	t.Helper()
	if res.Fault != "" {
		t.Fatalf("%s faulted (harness designs must be valid): %s\nsource:\n%s", name, res.Fault, src)
	}
	return simOutcome{
		log:     res.Log,
		vcd:     res.VCD,
		events:  res.Events,
		endTime: uint64(res.EndTime),
		final:   res.Final,
		flags:   fmt.Sprintf("fin=%v stop=%v to=%v", res.Finished, res.Stopped, res.TimedOut),
	}
}

// runVerilog elaborates and simulates src cold, then resets the
// retained design and simulates it again, returning both outcomes.
func runVerilog(t *testing.T, name, src string) (cold, rerun simOutcome) {
	t.Helper()
	comp := edatool.New(edatool.Options{}).Compile(edatool.Verilog, edatool.Source{Name: name, Text: src})
	if !comp.OK {
		t.Fatalf("%s does not compile:\n%s\nsource:\n%s", name, comp.Log, src)
	}
	d, err := vsim.Elaborate(comp.Modules, bench.TBName)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	opts := vsim.Options{CaptureFinal: true}
	cold = outcomeOf(t, name, src, vsim.SimulateDesign(d, opts))
	d.Reset()
	rerun = outcomeOf(t, name, src, vsim.SimulateDesign(d, opts))
	return cold, rerun
}

// diffWarmCache simulates src twice through tc, whose cache the caller
// shares across designs: the first run elaborates and retains the
// design, the second must re-run the retained design and report what
// the first did.
func diffWarmCache(t *testing.T, tc *edatool.Toolchain, name, src string) {
	t.Helper()
	unit := edatool.Source{Name: name + ".v", Text: src}
	cold := tc.Simulate(edatool.Verilog, bench.TBName, 0, unit)
	before := tc.CacheStats()
	warm := tc.Simulate(edatool.Verilog, bench.TBName, 0, unit)
	if hits := tc.CacheStats().Sub(before).DesignHits; hits != 1 {
		t.Errorf("%s: warm rerun made %d design-cache hits, want 1", name, hits)
	}
	if warm.Log != cold.Log {
		t.Errorf("%s: warm-cache log differs:\n--- cold ---\n%s\n--- warm ---\n%s", name, cold.Log, warm.Log)
	}
	if warm.VCD != cold.VCD {
		t.Errorf("%s: warm-cache VCD differs", name)
	}
	// The latency model is a function of the run's end time.
	if warm.LatencyModel != cold.LatencyModel || warm.Passed != cold.Passed || warm.TimedOut != cold.TimedOut {
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
// generated multi-cluster designs, cold vs reset-and-rerun vs a warm
// shared design cache.
func TestDifferentialRandomClusters(t *testing.T) {
	designs := 24
	if testing.Short() {
		designs = 8
	}
	tc := edatool.New(edatool.Options{Cache: edatool.NewDesignCache()})
	for i := 0; i < designs; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i*131)))
		src := genClusterDesign(rng)
		name := fmt.Sprintf("clusters-%d", i)
		cold, rerun := runVerilog(t, name, src)
		if !strings.Contains(cold.log, "$finish called") {
			t.Fatalf("%s: cold run did not finish:\n%s", name, cold.log)
		}
		diffOutcomes(t, name+"/rerun", cold, rerun)
		diffWarmCache(t, tc, name, src)
	}
}

// TestDifferentialBenchVerilog replays real bench-suite problems
// (golden DUT + reference testbench) cold, reset-and-rerun, and through
// a warm shared design cache.
func TestDifferentialBenchVerilog(t *testing.T) {
	suite := bench.NewSuite()
	stride := 8
	if testing.Short() {
		stride = 32
	}
	tc := edatool.New(edatool.Options{Cache: edatool.NewDesignCache()})
	for i := 0; i < len(suite.Problems); i += stride {
		p := suite.Problems[i]
		src := p.GoldenVerilog + "\n" + p.RefTBVerilog
		cold, rerun := runVerilog(t, p.ID, src)
		diffOutcomes(t, p.ID+"/rerun", cold, rerun)
		diffWarmCache(t, tc, p.ID, src)
	}
}

// TestDifferentialBenchVHDL does the same through the VHDL front-end.
func TestDifferentialBenchVHDL(t *testing.T) {
	suite := bench.NewSuite()
	stride := 12
	if testing.Short() {
		stride = 48
	}
	type vhdlOutcome struct {
		log     string
		events  uint64
		endTime uint64
		asserts int
		final   map[string]string
	}
	run := func(p *bench.Problem, mode sim.BackendMode) vhdlOutcome {
		src := p.GoldenVHDL + "\n" + p.RefTBVHDL
		comp := edatool.New(edatool.Options{}).Compile(edatool.VHDL, edatool.Source{Name: p.ID + ".vhd", Text: src})
		if !comp.OK {
			t.Fatalf("%s does not compile:\n%s", p.ID, comp.Log)
		}
		res, err := vhdlsim.Simulate(comp.Units, "tb", vhdlsim.Options{
			CaptureFinal: true,
			Backend:      mode,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if res.Fault != "" {
			t.Fatalf("%s faulted: %s", p.ID, res.Fault)
		}
		return vhdlOutcome{
			log:     res.Log,
			events:  res.Events,
			endTime: uint64(res.EndTime),
			asserts: res.AssertErrors,
			final:   res.Final,
		}
	}
	for i := 0; i < len(suite.Problems); i += stride {
		p := suite.Problems[i]
		ref := run(p, sim.BackendAuto)
		got := run(p, sim.BackendInterpret)
		if got.log != ref.log {
			t.Errorf("%s: VHDL log differs (interpret):\n--- compiled ---\n%s\n--- interpret ---\n%s",
				p.ID, ref.log, got.log)
		}
		if got.events != ref.events || got.endTime != ref.endTime || got.asserts != ref.asserts {
			t.Errorf("%s: VHDL counters differ (interpret): %+v vs %+v", p.ID, got, ref)
		}
		for sig, want := range ref.final {
			if got.final[sig] != want {
				t.Errorf("%s: VHDL final %s = %s (interpret), want %s", p.ID, sig, got.final[sig], want)
			}
		}
	}
}

// TestDifferentialRepeatable pins run-to-run determinism: two
// independent cold runs of the same design, and the rerun of each,
// must agree byte for byte.
func TestDifferentialRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	src := genClusterDesign(rng)
	a, aRerun := runVerilog(t, "repeat", src)
	b, bRerun := runVerilog(t, "repeat", src)
	diffOutcomes(t, "repeat/cold", a, b)
	diffOutcomes(t, "repeat/rerun", a, aRerun)
	diffOutcomes(t, "repeat/rerun", b, bRerun)
}
