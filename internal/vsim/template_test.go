package vsim

import (
	"testing"

	"repro/internal/verilog"
)

// Template replay must be invisible in results: a module instantiated
// several times from one template, and a design sharing AST pointers
// with another, both produce the output a fresh elaboration would.

func mustSimDesign(t testing.TB, d *Design) *Result {
	t.Helper()
	res := SimulateDesign(d, Options{CaptureFinal: true})
	if res.Fault != "" {
		t.Fatalf("fault: %s\nlog:\n%s", res.Fault, res.Log)
	}
	return res
}

func compareRuns(t *testing.T, label string, cold, warm *Result) {
	t.Helper()
	if warm.Log != cold.Log {
		t.Errorf("%s: log differs\ncold:\n%s\nwarm:\n%s", label, cold.Log, warm.Log)
	}
	if warm.VCD != cold.VCD {
		t.Errorf("%s: VCD differs", label)
	}
	if warm.EndTime != cold.EndTime {
		t.Errorf("%s: end time %v != %v", label, warm.EndTime, cold.EndTime)
	}
	if warm.Events != cold.Events {
		t.Errorf("%s: events %d != %d", label, warm.Events, cold.Events)
	}
	if len(warm.Final) != len(cold.Final) {
		t.Fatalf("%s: final value count %d != %d", label, len(warm.Final), len(cold.Final))
	}
	for name, v := range cold.Final {
		if warm.Final[name] != v {
			t.Errorf("%s: final %s = %q, cold %q", label, name, warm.Final[name], v)
		}
	}
}

// TestIncrementalReelaboration swaps one module of a two-module design
// under one testbench AST, as edatool's parse memo does in the repair
// loop: re-elaborating either configuration, alternately, keeps
// producing that configuration's first output.
func TestIncrementalReelaboration(t *testing.T) {
	const tbSrc = `
module tb;
  reg clk, reset;
  wire [15:0] count;
  counter dut(.clk(clk), .reset(reset), .count(count));
  initial begin
    clk = 0; reset = 1;
    #2 reset = 0;
    #50;
    $display("count=%d", count);
    $finish;
  end
  always #1 clk = ~clk;
endmodule`
	const dutUp = `
module counter(input clk, input reset, output reg [15:0] count);
  always @(posedge clk) begin
    if (reset) count <= 0;
    else count <= count + 1;
  end
endmodule`
	const dutDown = `
module counter(input clk, input reset, output reg [15:0] count);
  always @(posedge clk) begin
    if (reset) count <= 16'hFFFF;
    else count <= count - 1;
  end
endmodule`

	build := func(dut string) map[string]*verilog.Module {
		mods := parseTestDesign(t, tbSrc)
		for name, m := range parseTestDesign(t, dut) {
			mods[name] = m
		}
		return mods
	}
	up, down := build(dutUp), build(dutDown)
	// Reuse the same TB AST pointer across both configurations, the way
	// edatool's parse cache does in the repair loop.
	down["tb"] = up["tb"]

	elabSim := func(mods map[string]*verilog.Module) *Result {
		d, err := Elaborate(mods, "tb")
		if err != nil {
			t.Fatalf("elaborate: %v", err)
		}
		return mustSimDesign(t, d)
	}
	upRes, downRes := elabSim(up), elabSim(down)
	if upRes.Log == downRes.Log {
		t.Fatalf("test is vacuous: both DUT variants log %q", upRes.Log)
	}
	for i := 0; i < 2; i++ {
		compareRuns(t, "incremental up", upRes, elabSim(up))
		compareRuns(t, "incremental down", downRes, elabSim(down))
	}
}

// TestSharedTemplateInstances instantiates one module twice under equal
// parameters and once under different ones. The equal pair shares one
// template, yet each instance must keep its own state (u1 leaves reset
// later than u0); the third gets its own template.
func TestSharedTemplateInstances(t *testing.T) {
	const src = `
module acc #(parameter W = 4, parameter STEP = 1)
            (input clk, input reset, output reg [W-1:0] q);
  always @(posedge clk) begin
    if (reset) q <= 0;
    else q <= q + STEP;
  end
endmodule
module tb;
  reg clk, r0, r1;
  wire [7:0] a, b, c;
  acc #(.W(8), .STEP(1)) u0(.clk(clk), .reset(r0), .q(a));
  acc #(.W(8), .STEP(1)) u1(.clk(clk), .reset(r1), .q(b));
  acc #(.W(8), .STEP(3)) u2(.clk(clk), .reset(r0), .q(c));
  initial begin
    clk = 0; r0 = 1; r1 = 1;
    #3 r0 = 0;
    #8 r1 = 0;
    #20;
    $display("a=%d b=%d c=%d", a, b, c);
    $finish;
  end
  always #1 clk = ~clk;
endmodule`
	d, err := Elaborate(parseTestDesign(t, src), "tb")
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res := mustSimDesign(t, d)

	if u := d.Top.Children; len(u) != 3 {
		t.Fatalf("got %d instances, want 3", len(u))
	}
	accTemplates := 0
	for key := range d.templates {
		if key.mod.Name == "acc" {
			accTemplates++
		}
	}
	if accTemplates != 2 {
		t.Errorf("three acc instances under two parameter valuations built %d templates, want 2", accTemplates)
	}
	if a, b := res.Final["tb.u0.q"], res.Final["tb.u1.q"]; a == b {
		t.Errorf("u0 and u1 ended in the same state %q; instance state leaked through the shared template", a)
	}
	if a, c := res.Final["tb.u0.q"], res.Final["tb.u2.q"]; a == c {
		t.Errorf("u0 and u2 ended in the same state %q despite different STEP", a)
	}
}

// BenchmarkElaborateCold is the elaboration cost a design-cache miss
// pays on top of compile.
func BenchmarkElaborateCold(b *testing.B) {
	mods := parseBenchDesign(b, counterSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Elaborate(mods, "tb"); err != nil {
			b.Fatal(err)
		}
	}
}
