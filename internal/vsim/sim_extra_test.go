package vsim

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/verilog"
)

func TestSimSignedLoopCountdown(t *testing.T) {
	res := run(t, "tb", `
module tb;
  integer i;
  reg [7:0] acc;
  initial begin
    acc = 0;
    for (i = 7; i >= 0; i = i - 1)
      acc = acc + 1;
    if (acc === 8'd8) $display("SIGNED OK");
    else $display("FAIL acc=%d", acc);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "SIGNED OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimSignedComparison(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg signed [7:0] a;
  reg [7:0] b;
  initial begin
    a = -8'sd5;
    b = 8'd3;
    // signed vs unsigned: comparison is unsigned (-5 = 251 > 3)
    if (a > b) $display("UNSIGNED CMP OK");
    // both signed: -5 < 3
    if (a < 8'sd3) $display("SIGNED CMP OK");
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "UNSIGNED CMP OK") || !strings.Contains(res.Log, "SIGNED CMP OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

// TestSimSignedOperandsWiden: a signed expression sign-extends its
// context-determined operands to the context width, and an unsigned one
// zero-extends them, signed or not (IEEE 1364-2005 §5.5.1–5.5.2). A
// shift or a power takes the type of its left operand.
func TestSimSignedOperandsWiden(t *testing.T) {
	res := run(t, "tb", `
module tb;
  integer i;
  reg signed [63:0] y, x;
  reg signed [7:0] sa, sb;
  reg [7:0] b;
  reg [16:0] w;
  initial begin
    i = -5; y = i; x = i / 2;
    $display("assign %0d %0d", y, x);
    sa = -8'sd1; sb = 8'sd1; b = 8'd1;
    w = sa + sb; $display("signed-ctx %b", w);
    w = sa + b; $display("unsigned-ctx %b", w);
    w = $signed(8'hff) + b; $display("cast %b", w);
    w = sa >>> 1; $display("shift %b", w);
    w = sa ** 2'd3; $display("power %b", w);
    w = sa ** 2'd3 + b; $display("power-unsigned %b", w);
    w = 1'b1 ? sa : b; $display("ternary %b", w);
    $display("compare %b %b", sa == -1, sa == 255);
    $finish;
  end
endmodule`)
	for _, want := range []string{
		"assign -5 -2",
		"signed-ctx 00000000000000000",
		"unsigned-ctx 00000000100000000",
		"cast 00000000100000000",
		"shift 11111111111111111",
		"power 11111111111111111",
		"power-unsigned 10000001100000000",
		"ternary 00000000011111111",
		"compare 1 0",
	} {
		if !strings.Contains(res.Log, want+"\n") {
			t.Errorf("missing %q in log:\n%s", want, res.Log)
		}
	}
}

func TestSimWhileAndRepeat(t *testing.T) {
	res := run(t, "tb", `
module tb;
  integer i;
  reg [7:0] n;
  initial begin
    n = 0; i = 0;
    while (i < 5) begin
      n = n + 2;
      i = i + 1;
    end
    repeat (3) n = n + 1;
    if (n === 8'd13) $display("LOOPS OK");
    else $display("FAIL n=%d", n);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "LOOPS OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimForeverWithDelay(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg tickev;
  integer n;
  initial begin
    tickev = 0; n = 0;
    forever begin
      #5 tickev = ~tickev;
      n = n + 1;
      if (n == 4) begin
        $display("FOREVER OK at %0t", $time);
        $finish;
      end
    end
  end
endmodule`)
	if !strings.Contains(res.Log, "FOREVER OK at 20") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimClog2AndReplicate(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg [31:0] c;
  reg [7:0] r;
  initial begin
    c = $clog2(256);
    r = {4{2'b10}};
    if (c === 32'd8 && r === 8'b10101010) $display("MISC OK");
    else $display("FAIL c=%d r=%b", c, r);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "MISC OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

// TestSimClog2Wide pins $clog2 of values at and past 2^63, whose search
// for the next power of two once shifted past 64 bits and never ended.
func TestSimClog2Wide(t *testing.T) {
	res := run(t, "tb", `
module tb;
  initial begin
    $display("%0d %0d %0d", $clog2(64'h8000000000000000), $clog2(64'h8000000000000001), $clog2(64'hffffffffffffffff));
    $finish;
  end
endmodule`)
	if !strings.HasPrefix(res.Log, "63 64 64\n") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimCasexWildcards(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg [3:0] v;
  reg [1:0] y;
  initial begin
    v = 4'b1010;
    casex (v)
      4'b0xxx: y = 2'd0;
      4'b10xx: y = 2'd1;
      default: y = 2'd2;
    endcase
    if (y === 2'd1) $display("CASEX OK");
    else $display("FAIL y=%d", y);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "CASEX OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimMemoryClockedWrite(t *testing.T) {
	res := run(t, "tb", `
module ram(input clk, input we, input [1:0] addr, input [7:0] wd, output [7:0] rd);
  reg [7:0] mem [0:3];
  always @(posedge clk)
    if (we) mem[addr] <= wd;
  assign rd = mem[addr];
endmodule`, `
module tb;
  reg clk, we;
  reg [1:0] addr;
  reg [7:0] wd;
  wire [7:0] rd;
  ram dut(.clk(clk), .we(we), .addr(addr), .wd(wd), .rd(rd));
  always #5 clk = ~clk;
  initial begin
    clk = 0; we = 1; addr = 2'd2; wd = 8'hAB;
    @(posedge clk); #1;
    we = 0;
    if (rd === 8'hAB) $display("RAM OK");
    else $display("FAIL rd=%h", rd);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "RAM OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimOrderedPortConnections(t *testing.T) {
	res := run(t, "tb", `
module add1(input [3:0] a, output [3:0] y);
  assign y = a + 1;
endmodule`, `
module tb;
  reg [3:0] a;
  wire [3:0] y;
  add1 dut(a, y);
  initial begin
    a = 4'd6; #1;
    if (y === 4'd7) $display("ORDERED OK");
    else $display("FAIL y=%d", y);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "ORDERED OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimOrderedParamOverride(t *testing.T) {
	res := run(t, "tb", `
module w #(parameter N = 2) (output [7:0] v);
  assign v = N;
endmodule`, `
module tb;
  wire [7:0] v;
  w #(5) dut(.v(v));
  initial begin
    #1;
    if (v === 8'd5) $display("PARAM OK");
    else $display("FAIL v=%d", v);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "PARAM OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimLocalparamAndWidth(t *testing.T) {
	res := run(t, "tb", `
module tb;
  localparam W = 6;
  reg [W-1:0] v;
  initial begin
    v = {W{1'b1}};
    if (v === 6'b111111) $display("LP OK");
    else $display("FAIL v=%b", v);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "LP OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimReductionInCondition(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg [3:0] v;
  initial begin
    v = 4'b0110;
    if (|v && !(&v) && (^v === 1'b0)) $display("RED OK");
    else $display("FAIL");
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "RED OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimBlockingVsNonblockingOrder(t *testing.T) {
	// Classic: blocking in same always sees updated value, NBA does not.
	res := run(t, "tb", `
module tb;
  reg clk;
  reg [3:0] a, b, c;
  always #5 clk = ~clk;
  always @(posedge clk) begin
    a = 4'd1;
    b = a;      // blocking: sees 1
    c <= a;     // NBA rhs evaluated now (1), applied after
  end
  initial begin
    clk = 0; a = 0; b = 0; c = 0;
    @(posedge clk); #1;
    if (b === 4'd1 && c === 4'd1) $display("ORDER OK");
    else $display("FAIL b=%d c=%d", b, c);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "ORDER OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimOutOfRangeIndexYieldsX(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg [3:0] v;
  reg b;
  initial begin
    v = 4'b1010;
    b = v[7];
    if (b === 1'bx) $display("OOR OK");
    else $display("FAIL b=%b", b);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "OOR OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimAscendingRange(t *testing.T) {
	res := run(t, "tb", `
module tb;
  reg [0:3] v;
  initial begin
    v = 4'b1000;
    // v[0] is the MSB for ascending ranges.
    if (v[0] === 1'b1 && v[3] === 1'b0) $display("ASC OK");
    else $display("FAIL v0=%b v3=%b", v[0], v[3]);
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "ASC OK") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimStringDisplay(t *testing.T) {
	res := run(t, "tb", `
module tb;
  initial begin
    $display("plain text %s here", "mid");
    $finish;
  end
endmodule`)
	if !strings.Contains(res.Log, "plain text mid here") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimElabErrorUnknownModule(t *testing.T) {
	sf, diags := verilogParse("module tb; ghost u0(); endmodule")
	if diags.HasErrors() {
		// The checker flags it, but elaboration must also fail when the
		// checker is bypassed.
		t.Log("checker caught it as expected")
	}
	mods := make(map[string]*verilogModule)
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	if _, err := Simulate(mods, "tb", Options{}); err == nil {
		t.Error("expected elaboration error for unknown module")
	}
}

// shims to keep the elaboration-error test terse.
type verilogModule = verilog.Module

func verilogParse(src string) (*verilog.SourceFile, diag.List) {
	return verilog.Parse("t.v", src)
}
