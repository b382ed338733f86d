package vsim

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog"
)

// runBothModes simulates src under the compiled and interpreted
// backends and returns both results.
func runBothModes(t *testing.T, src, top string) (compiled, interp *Result) {
	t.Helper()
	sf, diags := verilog.Parse("src.v", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	do := func(mode sim.BackendMode) *Result {
		res, err := Simulate(mods, top, Options{CaptureFinal: true, Backend: mode})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		return res
	}
	return do(sim.BackendAuto), do(sim.BackendInterpret)
}

// requireSameOutput asserts the two backends produced byte-identical
// observable output: log, VCD, final values, and termination state.
func requireSameOutput(t *testing.T, rc, ri *Result) {
	t.Helper()
	if rc.Log != ri.Log {
		t.Fatalf("log mismatch:\ncompiled: %q\ninterp: %q", rc.Log, ri.Log)
	}
	if rc.VCD != ri.VCD {
		t.Fatalf("VCD mismatch (%d vs %d bytes)", len(rc.VCD), len(ri.VCD))
	}
	if len(rc.Final) != len(ri.Final) {
		t.Fatalf("final-state size mismatch: %d vs %d", len(rc.Final), len(ri.Final))
	}
	for k, v := range ri.Final {
		if rc.Final[k] != v {
			t.Fatalf("final %s: compiled %q interp %q", k, rc.Final[k], v)
		}
	}
	if rc.Finished != ri.Finished || rc.Stopped != ri.Stopped || rc.TimedOut != ri.TimedOut || rc.Fault != ri.Fault {
		t.Fatalf("outcome mismatch: compiled %+v interp %+v", rc, ri)
	}
}

const backendCounterSrc = `
module counter(input clk, input rst, output reg [15:0] count);
  always @(posedge clk) begin
    if (rst) count <= 0;
    else count <= count + 1;
  end
endmodule
module tb;
  reg clk = 0, rst = 1;
  wire [15:0] count;
  counter dut(.clk(clk), .rst(rst), .count(count));
  integer i;
  initial begin
    rst = 0;
    for (i = 0; i < 200; i = i + 1) begin
      #1 clk = 1;
      #1 clk = 0;
    end
    $display("count=%d", count);
    $finish;
  end
endmodule`

// TestVsimBackendCompiledEngages pins that a plain clocked counter runs
// on the compiled fast path with output byte-identical to the
// interpreter, and that the stats distinguish the modes.
func TestVsimBackendCompiledEngages(t *testing.T) {
	rc, ri := runBothModes(t, backendCounterSrc, "tb")
	requireSameOutput(t, rc, ri)
	if rc.Backend.CompiledProcs == 0 {
		t.Fatalf("expected compiled procs, got %+v", rc.Backend)
	}
	if rc.Backend.Mode != "compiled" || ri.Backend.Mode != "interpret" {
		t.Fatalf("mode mismatch: %q / %q", rc.Backend.Mode, ri.Backend.Mode)
	}
	if ri.Backend.CompiledProcs != 0 || ri.Backend.CompiledAssigns != 0 {
		t.Fatalf("interpret mode must not compile: %+v", ri.Backend)
	}
	if !strings.Contains(rc.Log, "count=") {
		t.Fatalf("testbench did not run: %q", rc.Log)
	}
}

// TestVsimBackendFallbackOnX forces an X into a compiled datapath
// mid-run, then clears it. Activations that see the X must fall back
// to the interpreter; output stays byte-identical and the accumulator
// recovers after the synchronous clear.
func TestVsimBackendFallbackOnX(t *testing.T) {
	src := `
module acc(input clk, input clr, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) begin
    if (clr) q <= 0;
    else q <= q + d;
  end
endmodule
module tb;
  reg clk = 0, clr = 0;
  reg [7:0] d;
  wire [7:0] q;
  acc dut(.clk(clk), .clr(clr), .d(d), .q(q));
  integer i;
  initial begin
    d = 3;
    for (i = 0; i < 10; i = i + 1) begin
      #1 clk = 1;
      #1 clk = 0;
    end
    // Force the datapath back into the 4-state domain mid-run.
    d = 8'bx;
    for (i = 0; i < 5; i = i + 1) begin
      #1 clk = 1;
      #1 clk = 0;
    end
    // Clear the contaminated accumulator, then resume two-state.
    clr = 1;
    #1 clk = 1;
    #1 clk = 0;
    clr = 0;
    d = 1;
    for (i = 0; i < 10; i = i + 1) begin
      #1 clk = 1;
      #1 clk = 0;
    end
    $display("q=%b", q);
    $finish;
  end
endmodule`
	rc, ri := runBothModes(t, src, "tb")
	requireSameOutput(t, rc, ri)
	if rc.Backend.CompiledProcs == 0 {
		t.Fatalf("expected a compiled process, got %+v", rc.Backend)
	}
	if rc.Backend.Fallbacks == 0 {
		t.Fatalf("expected X-guard fallbacks, got %+v", rc.Backend)
	}
	if ri.Backend.Fallbacks != 0 {
		t.Fatalf("interpret mode cannot fall back: %+v", ri.Backend)
	}
	if strings.Contains(rc.Log, "x") && !strings.Contains(rc.Log, "q=00001010") {
		t.Fatalf("accumulator did not recover from X: %q", rc.Log)
	}
}

// TestVsimBackendWorkersIdentical runs the counter in both modes on 1,
// 2 and 4 concurrent workers, each elaborating its own design from one
// shared parse as sweep workers do; every run must agree byte for byte
// with a lone run.
func TestVsimBackendWorkersIdentical(t *testing.T) {
	base, _ := runBothModes(t, backendCounterSrc, "tb")
	mods := parseTestDesign(t, backendCounterSrc)
	for _, workers := range []int{1, 2, 4} {
		runs := make([][2]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, mode := range []sim.BackendMode{sim.BackendAuto, sim.BackendInterpret} {
					if runs[w][i], errs[w] = Simulate(mods, "tb", Options{CaptureFinal: true, Backend: mode}); errs[w] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for w, r := range runs {
			if errs[w] != nil {
				t.Fatalf("workers=%d: %v", workers, errs[w])
			}
			requireSameOutput(t, r[0], r[1])
			if r[0].Log != base.Log {
				t.Fatalf("workers=%d: worker %d log diverged from a lone run", workers, w)
			}
		}
	}
}
