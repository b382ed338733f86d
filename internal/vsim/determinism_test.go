package vsim

import (
	"testing"

	"repro/internal/verilog"
)

// TestSimulateDeterministicVCD pins the dispatch order of the
// continuation kernel: simulating the same design twice must produce
// byte-identical VCD waveforms and logs. The goroutine-era kernel was
// deterministic only because exactly one goroutine ever ran; the
// direct-dispatch kernel must preserve that ordering exactly (FIFO
// active region, stable NBA application, heap tiebreak by sequence),
// since the experiment layer caches simulation results and
// replays must match bit for bit.
func TestSimulateDeterministicVCD(t *testing.T) {
	src := `
module counter(input clk, input reset, output reg [7:0] count);
  always @(posedge clk) begin
    if (reset) count <= 0;
    else count <= count + 1;
  end
endmodule
module tb;
  reg clk, reset;
  wire [7:0] count;
  counter dut(.clk(clk), .reset(reset), .count(count));
  always #1 clk = ~clk;
  initial begin
    $dumpfile("wave.vcd");
    $dumpvars(0, tb);
    clk = 0; reset = 1;
    #3 reset = 0;
    #0 $display("after zero-delay yield at %0t", $time);
    #40;
    $monitor("count=%d at %0t", count, $time);
    #10 $finish;
  end
endmodule`
	sf, diags := verilog.Parse("det.v", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	runOnce := func() (string, string) {
		res, err := Simulate(mods, "tb", Options{})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if !res.Finished {
			t.Fatalf("did not finish: %s", res.Log)
		}
		if res.VCD == "" {
			t.Fatal("no VCD captured")
		}
		return res.VCD, res.Log
	}
	vcd1, log1 := runOnce()
	vcd2, log2 := runOnce()
	if vcd1 != vcd2 {
		t.Errorf("VCD output differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", vcd1, vcd2)
	}
	if log1 != log2 {
		t.Errorf("log differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", log1, log2)
	}
}
