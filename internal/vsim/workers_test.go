package vsim

import (
	"sync"
	"testing"
)

const workersCounterSrc = `
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

// TestVsimWorkersIdentical runs the counter on 1, 2 and 4
// concurrent workers, each elaborating its own design from one shared
// parse as sweep workers do; every run must agree byte for byte with a
// lone run.
func TestVsimWorkersIdentical(t *testing.T) {
	mods := parseTestDesign(t, workersCounterSrc)
	base, err := Simulate(mods, "tb", Options{CaptureFinal: true})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		runs := make([]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[w], errs[w] = Simulate(mods, "tb", Options{CaptureFinal: true})
			}()
		}
		wg.Wait()
		for w, r := range runs {
			if errs[w] != nil {
				t.Fatalf("workers=%d: %v", workers, errs[w])
			}
			compareRuns(t, "concurrent worker vs lone run", base, r)
		}
	}
}
