package verilog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func checkSrc(t *testing.T, src string) (ok bool, msgs string) {
	t.Helper()
	sf, pd := Parse("t.v", src)
	if pd.HasErrors() {
		t.Fatalf("parse errors in checker test fixture: %v", pd)
	}
	diags := Check("t.v", sf, nil)
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return !diags.HasErrors(), sb.String()
}

func TestCheckCleanModule(t *testing.T) {
	ok, msgs := checkSrc(t, sampleCounter)
	if !ok {
		t.Errorf("clean module flagged: %s", msgs)
	}
}

func TestCheckUndeclaredIdent(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input a, output y);
  assign y = a & undeclared_net;
endmodule`)
	if ok {
		t.Fatal("undeclared identifier not flagged")
	}
	if !strings.Contains(msgs, "undeclared_net") || !strings.Contains(msgs, "not declared") {
		t.Errorf("message: %s", msgs)
	}
}

func TestCheckProceduralAssignToWire(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input clk, input d, output q);
  always @(posedge clk) q <= d;
endmodule`)
	if ok {
		t.Fatal("procedural assignment to wire output not flagged")
	}
	if !strings.Contains(msgs, "reg") {
		t.Errorf("message should suggest reg: %s", msgs)
	}
}

func TestCheckContinuousAssignToReg(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input d, output reg q);
  assign q = d;
endmodule`)
	if ok {
		t.Fatal("continuous assignment to reg not flagged")
	}
	if !strings.Contains(msgs, "wire") {
		t.Errorf("message: %s", msgs)
	}
}

func TestCheckAssignToInput(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input d, output reg q);
  wire d2;
  always @(*) begin
    q = d;
  end
  assign d = 1'b0;
endmodule`)
	if ok {
		t.Fatal("assignment to input not flagged")
	}
	if !strings.Contains(msgs, "input port") {
		t.Errorf("message: %s", msgs)
	}
}

func TestCheckDuplicateDecl(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input a, output y);
  wire w;
  wire w;
  assign y = a;
endmodule`)
	if ok {
		t.Fatal("duplicate declaration not flagged")
	}
	if !strings.Contains(msgs, "already declared") {
		t.Errorf("message: %s", msgs)
	}
}

func TestCheckNonANSIRedeclarationLegal(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(a, y);
  input a;
  output y;
  reg y;
  always @(*) y = a;
endmodule`)
	if !ok {
		t.Errorf("non-ANSI output reg redeclaration should be legal: %s", msgs)
	}
}

func TestCheckUnknownInstanceModule(t *testing.T) {
	ok, msgs := checkSrc(t, `module tb;
  wire q;
  mystery u0(.q(q));
endmodule`)
	if ok {
		t.Fatal("unknown module not flagged")
	}
	if !strings.Contains(msgs, "mystery") {
		t.Errorf("message: %s", msgs)
	}
}

func TestCheckInstanceWithExtern(t *testing.T) {
	dutSrc := `module dut(input a, output y); assign y = a; endmodule`
	dutSf, _ := Parse("dut.v", dutSrc)
	tbSrc := `module tb;
  reg a; wire y;
  dut u0(.a(a), .y(y));
endmodule`
	tbSf, _ := Parse("tb.v", tbSrc)
	extern := map[string]*Module{"dut": dutSf.Modules[0]}
	diags := Check("tb.v", tbSf, extern)
	if diags.HasErrors() {
		t.Errorf("extern module should satisfy instance: %v", diags)
	}
}

func TestCheckBadPortName(t *testing.T) {
	dutSf, _ := Parse("dut.v", `module dut(input a, output y); assign y = a; endmodule`)
	tbSf, _ := Parse("tb.v", `module tb;
  reg a; wire y;
  dut u0(.a(a), .z(y));
endmodule`)
	diags := Check("tb.v", tbSf, map[string]*Module{"dut": dutSf.Modules[0]})
	if !diags.HasErrors() {
		t.Fatal("bad port name not flagged")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, `"z"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("diags: %v", diags)
	}
}

func TestCheckAssignToParameter(t *testing.T) {
	ok, msgs := checkSrc(t, `module m(input a, output reg y);
  parameter P = 4;
  always @(*) begin
    P = a;
    y = a;
  end
endmodule`)
	if ok {
		t.Fatal("assignment to parameter not flagged")
	}
	if !strings.Contains(msgs, "parameter") {
		t.Errorf("message: %s", msgs)
	}
}

// checkChainSrc is a module instantiating a chain of n copies of one
// small clocked module, each feeding the next.
func checkChainSrc(n int) string {
	var sb strings.Builder
	sb.WriteString(`
module stage(input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d + 8'd1;
endmodule
module top(input clk, output [7:0] y);
`)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&sb, "  wire [7:0] w%d;\n", i)
	}
	sb.WriteString("  assign w0 = 8'd0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  stage s%d(.clk(clk), .d(w%d), .q(w%d));\n", i, i, i+1)
	}
	fmt.Fprintf(&sb, "  assign y = w%d;\nendmodule\n", n)
	return sb.String()
}

// checkAllocBytes returns the heap bytes one Check of src allocates;
// parsing is outside the measurement.
func checkAllocBytes(t *testing.T, src string) uint64 {
	t.Helper()
	sf, pd := Parse("chain.v", src)
	if pd.HasErrors() {
		t.Fatalf("parse: %v", pd)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	diags := Check("chain.v", sf, nil)
	runtime.ReadMemStats(&after)
	if diags.HasErrors() {
		t.Fatalf("check: %v", diags)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckAllocLinear guards semantic checking against superlinear
// cost in design size: a chain of 8N instances may allocate at most
// 10x the heap bytes of a chain of N (TestLexParseAllocLinear guards
// parsing).
func TestCheckAllocLinear(t *testing.T) {
	const n = 50
	small := checkAllocBytes(t, checkChainSrc(n))
	large := checkAllocBytes(t, checkChainSrc(8*n))
	t.Logf("%d instances: %d bytes; %d instances: %d bytes", n, small, 8*n, large)
	if large > 10*small {
		t.Errorf("%d instances allocated %d bytes, more than 10x the %d of %d instances", 8*n, large, small, n)
	}
}
