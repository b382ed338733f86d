package vsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/verilog"
)

func mustParse(t *testing.T, src string) map[string]*verilog.Module {
	t.Helper()
	sf, diags := verilog.Parse("t.v", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	return mods
}

func runTB(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Simulate(mustParse(t, src), "tb", Options{})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Fault != "" {
		t.Fatalf("fault: %s\nlog:\n%s", res.Fault, res.Log)
	}
	return res
}

// TestNBARecordShapes exercises every nonblocking-assignment target
// shape the pooled record representation handles: whole regs (static,
// pre-bound), constant and dynamic bit-selects, part-selects,
// concatenations, memory words, the classic NBA swap (records must
// carry the values read at schedule time, not apply time), and
// out-of-range dynamic selects (discarded without a record).
func TestNBARecordShapes(t *testing.T) {
	src := `
module tb;
  reg clk;
  reg [7:0] a, b;
  reg [7:0] v;
  reg [3:0] hi, lo;
  reg [7:0] mem [0:3];
  integer i;
  initial begin
    clk = 0; a = 8'h12; b = 8'h34; v = 0; hi = 0; lo = 0; i = 1;
    #1 clk = 1;
    #1 clk = 0;
    #1 clk = 1;
    #1 begin
      $display("a=%h b=%h v=%h hi=%h lo=%h m1=%h m2=%h", a, b, v, hi, lo, mem[1], mem[2]);
      $finish;
    end
  end
  always @(posedge clk) begin
    a <= b;           // static whole reg
    b <= a;           // swap partner: schedule-time value
    v[0] <= 1'b1;     // constant bit-select
    v[i] <= 1'b1;     // dynamic bit-select
    v[7:6] <= 2'b10;  // constant part-select
    {hi, lo} <= {a[3:0], b[3:0]};  // concatenation
    mem[i] <= a;      // dynamic memory index
    mem[2] <= b;      // constant memory index
    mem[i+100] <= 8'hff; // out-of-range: discarded
    v[i+100] <= 1'b1;    // out-of-range bit: discarded
  end
endmodule`
	res := runTB(t, src)
	// Two posedges: after the first, a=34 b=12 (swap of 12/34); after
	// the second they swap back. v collects bits 0,1 (i=1) and 10 in
	// [7:6]. {hi,lo} latches {a[3:0],b[3:0]} read at the second edge
	// (a=34,b=12): hi=4, lo=2. mem[1]=a, mem[2]=b at the second edge.
	want := "a=12 b=34 v=83 hi=4 lo=2 m1=34 m2=12"
	if !strings.Contains(res.Log, want) {
		t.Fatalf("log = %q, want it to contain %q", res.Log, want)
	}
}

// TestNBADynamicIndexScheduleTime pins that a dynamic LHS index is
// resolved when the assignment executes, not when the update applies:
// changing the index afterwards (blocking assign in the same block)
// must not redirect the pending update.
func TestNBADynamicIndexScheduleTime(t *testing.T) {
	src := `
module tb;
  reg [7:0] v;
  integer i;
  initial begin
    v = 0; i = 2;
    v[i] <= 1'b1;  // resolves to bit 2 now
    i = 5;         // must not move the write
    #1 $display("v=%b i=%0d", v, i);
    $finish;
  end
endmodule`
	res := runTB(t, src)
	if !strings.Contains(res.Log, "v=00000100 i=5") {
		t.Fatalf("log = %q, want bit 2 set", res.Log)
	}
}

// TestSimCounterNBAAllocBound is the front-end allocation guard: a
// 2000-cycle clocked-counter run — elaboration, simulation, teardown —
// must stay within a small constant allocation budget. The steady-state
// loop (eval, NBA record scheduling, signal update, watcher wakeup) is
// allocation-free, so any per-cycle allocation regression shows up as
// thousands of allocations here, far above the bound.
func TestSimCounterNBAAllocBound(t *testing.T) {
	mods := mustParse(t, `
module counter(input clk, input reset, output reg [15:0] count);
  always @(posedge clk) begin
    if (reset) count <= 0;
    else count <= count + 1;
  end
endmodule
module tb;
  reg clk, reset;
  wire [15:0] count;
  counter dut(.clk(clk), .reset(reset), .count(count));
  initial begin
    clk = 0; reset = 1;
    #2 reset = 0;
    #4000;
    if (count < 16'd1000) $display("FAIL count=%d", count);
    $finish;
  end
  always #1 clk = ~clk;
endmodule`)
	avg := testing.AllocsPerRun(3, func() {
		res, err := Simulate(mods, "tb", Options{})
		if err != nil || !res.Finished {
			t.Fatalf("simulate: %v (finished=%v)", err, res != nil && res.Finished)
		}
	})
	// The whole run currently costs ~180 allocations (all in
	// elaboration and result assembly). The bound leaves headroom for
	// incidental churn while catching any per-cycle allocation (2000
	// cycles would add >= 2000).
	if avg > 600 {
		t.Errorf("counter run allocations = %v, want <= 600 (per-cycle allocation regression)", avg)
	}
}

// chainSrc is a testbench driving a chain of n instances of one small
// clocked module, each feeding the next, for ten clock cycles.
func chainSrc(n int) string {
	var sb strings.Builder
	sb.WriteString(`
module stage(input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 8'd1;
endmodule
module tb;
  reg clk;
`)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&sb, "  wire [7:0] w%d;\n", i)
	}
	sb.WriteString("  assign w0 = 8'd0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  stage s%d(.clk(clk), .d(w%d), .q(w%d));\n", i, i, i+1)
	}
	fmt.Fprintf(&sb, `  initial begin
    clk = 0;
    repeat (20) #1 clk = ~clk;
    $display("out=%%d", w%d);
    $finish;
  end
endmodule
`, n)
	return sb.String()
}

// elabSimAllocBytes returns the heap bytes one Elaborate plus
// SimulateDesign of mods allocates.
func elabSimAllocBytes(t *testing.T, mods map[string]*verilog.Module) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Elaborate(mods, "tb")
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res := SimulateDesign(d, Options{})
	runtime.ReadMemStats(&after)
	if !res.Finished || res.Fault != "" {
		t.Fatalf("chain did not finish cleanly: %s", res.Log)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestElaborateAllocLinear guards elaboration and simulation against
// superlinear cost in design size: a chain of 8N instances may
// allocate at most 10x the heap bytes of a chain of N. Parsing is
// outside the measurement (TestLexParseAllocLinear guards it).
func TestElaborateAllocLinear(t *testing.T) {
	const n = 50
	small := elabSimAllocBytes(t, mustParse(t, chainSrc(n)))
	large := elabSimAllocBytes(t, mustParse(t, chainSrc(8*n)))
	t.Logf("%d instances: %d bytes; %d instances: %d bytes", n, small, 8*n, large)
	if large > 10*small {
		t.Errorf("%d instances allocated %d bytes, more than 10x the %d of %d instances", 8*n, large, small, n)
	}
}
