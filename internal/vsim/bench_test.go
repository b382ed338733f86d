package vsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/verilog"
)

// BenchmarkSimCounter measures end-to-end simulated-testbench throughput:
// parse once, then elaborate + run a clocked 16-bit counter for 2000
// cycles per iteration. This is the same shape as the generated
// testbenches the evaluation pipeline executes, so it tracks the
// simulator's real hot loop (eval, signal update, kernel scheduling).
func BenchmarkSimCounter(b *testing.B) { benchSim(b, counterSrc) }

// benchSim parses src once, then elaborates and runs its tb per
// iteration.
func benchSim(b *testing.B, src string) {
	mods := parseBenchDesign(b, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(mods, "tb", Options{})
		if err != nil {
			b.Fatalf("simulate: %v", err)
		}
		if !res.Finished {
			b.Fatalf("did not finish: %s", res.Log)
		}
	}
}

// datapathSrc is a 64-bit datapath: four instances of a clocked
// pipeline of straight-line arithmetic (adds, xors, shifts, muxes,
// compares — no division, no loops, no memories) plus a combinational
// reduction network, so per-cycle work is dominated by expression
// evaluation rather than kernel bookkeeping.
const datapathSrc = `
module dp(input clk, input [63:0] seed, output reg [63:0] out);
  reg [63:0] s0, s1, s2, s3;
  wire [63:0] mix0, mix1, mix2;
  assign mix0 = (s0 ^ (s1 >> 7)) + (s2 << 3) + {32'h9E3779B9, 32'h7F4A7C15};
  assign mix1 = (mix0 ^ (mix0 >> 13)) + (s3 ^ 64'h2545F4914F6CDD1D);
  assign mix2 = mix1[63] ? (mix1 << 1) ^ 64'h000000000000001B : (mix1 << 1);
  always @(posedge clk) begin
    s0 <= s1 + (s2 ^ seed);
    s1 <= s2 + (s3 >> 2) + 64'd1;
    s2 <= s3 ^ mix0;
    s3 <= mix2 + {s0[31:0], s1[63:32]};
    out <= (s0 < s1 ? mix1 : mix2) ^ (s2 & s3) ^ (s0 | ~s1);
  end
  initial begin s0 = seed; s1 = seed ^ 64'hAAAAAAAAAAAAAAAA;
    s2 = seed + 64'd12345; s3 = ~seed; out = 0; end
endmodule
module tb;
  reg clk;
  wire [63:0] o0, o1, o2, o3;
  dp d0(.clk(clk), .seed(64'h0123456789ABCDEF), .out(o0));
  dp d1(.clk(clk), .seed(64'hFEDCBA9876543210), .out(o1));
  dp d2(.clk(clk), .seed(64'h0F1E2D3C4B5A6978), .out(o2));
  dp d3(.clk(clk), .seed(64'h1111111122222222), .out(o3));
  wire [63:0] sum = o0 + o1 + o2 + o3;
  initial begin
    clk = 0;
    #4000;
    if (sum == 64'd0) $display("FAIL sum=%h", sum);
    $finish;
  end
  always #1 clk = ~clk;
endmodule`

// BenchmarkSimDatapath runs the datapath design (see datapathSrc).
func BenchmarkSimDatapath(b *testing.B) { benchSim(b, datapathSrc) }

const counterSrc = `
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
endmodule`

// wideSrc is a wide multi-module design: 16 self-contained clusters,
// each with its own clock and a compute-heavy clocked process, plus a
// finisher.
func wideSrc() string {
	var sb strings.Builder
	const clusters = 16
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&sb, `
module wcluster%d;
  reg clk;
  reg [31:0] acc, lfsr;
  integer i;
  initial begin clk = 0; acc = %d; lfsr = 32'hDEADBEEF ^ %d; end
  always #5 clk = ~clk;
  always @(posedge clk) begin
    for (i = 0; i < 48; i = i + 1)
      acc = (acc << 1) ^ (acc >> 3) ^ lfsr ^ i;
    lfsr <= lfsr ^ (acc + 7);
  end
endmodule
`, c, c+1, c*977)
	}
	sb.WriteString("module tb;\n")
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&sb, "  wcluster%d u%d();\n", c, c)
	}
	sb.WriteString("  initial #2000 $finish;\nendmodule\n")
	return sb.String()
}

func parseBenchDesign(b *testing.B, src string) map[string]*verilog.Module {
	b.Helper()
	sf, diags := verilog.Parse("bench.v", src)
	if diags.HasErrors() {
		b.Fatalf("parse: %v", diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	return mods
}

// BenchmarkSimWide runs the wide design (see wideSrc).
func BenchmarkSimWide(b *testing.B) { benchSim(b, wideSrc()) }
