package verilog

import (
	"fmt"
	"strings"
	"testing"
)

const sampleCounter = `
module counter #(parameter WIDTH = 4) (
    input clk,
    input reset,
    input enable,
    output reg [WIDTH-1:0] count
);
    always @(posedge clk) begin
        if (reset)
            count <= 0;
        else if (enable)
            count <= count + 1;
    end
endmodule
`

func mustParse(t *testing.T, src string) *SourceFile {
	t.Helper()
	sf, diags := Parse("test.v", src)
	if diags.HasErrors() {
		t.Fatalf("unexpected parse errors: %v", diags)
	}
	return sf
}

func TestParseCounter(t *testing.T) {
	sf := mustParse(t, sampleCounter)
	if len(sf.Modules) != 1 {
		t.Fatalf("modules = %d", len(sf.Modules))
	}
	m := sf.Modules[0]
	if m.Name != "counter" {
		t.Errorf("name = %q", m.Name)
	}
	if len(m.Ports) != 4 {
		t.Fatalf("ports = %d", len(m.Ports))
	}
	if m.Ports[3].Name != "count" || !m.Ports[3].IsReg || m.Ports[3].Dir != DirOutput {
		t.Errorf("count port = %+v", m.Ports[3])
	}
	if m.Ports[3].Range == nil {
		t.Error("count should have a range")
	}
	// parameter + always block
	var sawParam, sawAlways bool
	for _, it := range m.Items {
		switch x := it.(type) {
		case *ParamDecl:
			if x.Name == "WIDTH" {
				sawParam = true
			}
		case *AlwaysBlock:
			sawAlways = true
			if x.Sens == nil || len(x.Sens.Items) != 1 || x.Sens.Items[0].Edge != EdgePos {
				t.Errorf("sensitivity = %+v", x.Sens)
			}
		}
	}
	if !sawParam || !sawAlways {
		t.Errorf("param=%v always=%v", sawParam, sawAlways)
	}
}

func TestParseNonBlockingVsComparison(t *testing.T) {
	src := `
module m(input clk, input [3:0] a, b, output reg [3:0] q);
  always @(posedge clk) begin
    if (a <= b)
      q <= a;
    else
      q <= b;
  end
endmodule`
	sf := mustParse(t, src)
	alw := findAlways(sf.Modules[0])
	blk := alw.Body.(*Block)
	ifs := blk.Stmts[0].(*If)
	if _, ok := ifs.Cond.(*Binary); !ok {
		t.Fatalf("condition should be a Binary <=, got %T", ifs.Cond)
	}
	then := ifs.Then.(*Assign)
	if then.Blocking {
		t.Error("q <= a must be nonblocking")
	}
}

func findAlways(m *Module) *AlwaysBlock {
	for _, it := range m.Items {
		if a, ok := it.(*AlwaysBlock); ok {
			return a
		}
	}
	return nil
}

func TestParseExprPrecedence(t *testing.T) {
	src := `module m(input [7:0] a, b, c, output [7:0] y);
  assign y = a + b * c;
endmodule`
	sf := mustParse(t, src)
	var ca *ContAssign
	for _, it := range sf.Modules[0].Items {
		if x, ok := it.(*ContAssign); ok {
			ca = x
		}
	}
	add, ok := ca.RHS.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("top op = %v", ExprString(ca.RHS))
	}
	mul, ok := add.R.(*Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs of + should be *: %v", ExprString(add.R))
	}
}

func TestParseTernaryAndConcat(t *testing.T) {
	src := `module m(input s, input [3:0] a, b, output [7:0] y);
  assign y = s ? {a, b} : {2{a}};
endmodule`
	sf := mustParse(t, src)
	var ca *ContAssign
	for _, it := range sf.Modules[0].Items {
		if x, ok := it.(*ContAssign); ok {
			ca = x
		}
	}
	tern := ca.RHS.(*Ternary)
	if _, ok := tern.Then.(*ConcatExpr); !ok {
		t.Errorf("then = %T", tern.Then)
	}
	if _, ok := tern.Else.(*ReplicateExpr); !ok {
		t.Errorf("else = %T", tern.Else)
	}
}

func TestParseCaseStatement(t *testing.T) {
	src := `module m(input [1:0] sel, input [3:0] a, b, c, d, output reg [3:0] y);
  always @(*) begin
    case (sel)
      2'b00: y = a;
      2'b01: y = b;
      2'b10, 2'b11: y = c;
      default: y = d;
    endcase
  end
endmodule`
	sf := mustParse(t, src)
	alw := findAlways(sf.Modules[0])
	if !alw.Sens.Star {
		t.Error("@(*) should set Star")
	}
	cs := alw.Body.(*Block).Stmts[0].(*Case)
	if len(cs.Items) != 4 {
		t.Fatalf("case items = %d", len(cs.Items))
	}
	if len(cs.Items[2].Exprs) != 2 {
		t.Errorf("third arm exprs = %d", len(cs.Items[2].Exprs))
	}
	if cs.Items[3].Exprs != nil {
		t.Error("default arm must have nil exprs")
	}
}

func TestParseTestbenchConstructs(t *testing.T) {
	src := `
module tb;
  reg clk, reset;
  wire [3:0] q;
  counter dut(.clk(clk), .reset(reset), .enable(1'b1), .count(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; reset = 1;
    #12 reset = 0;
    @(posedge clk);
    repeat (4) @(posedge clk);
    if (q !== 4'd4) $display("Test Case 1 Failed: q=%d", q);
    $display("All tests passed successfully!");
    $finish;
  end
endmodule`
	sf := mustParse(t, src)
	m := sf.Modules[0]
	var inst *Instance
	var init *InitialBlock
	for _, it := range m.Items {
		switch x := it.(type) {
		case *Instance:
			inst = x
		case *InitialBlock:
			init = x
		}
	}
	if inst == nil || inst.ModuleName != "counter" || inst.InstName != "dut" || len(inst.Conns) != 4 {
		t.Fatalf("instance = %+v", inst)
	}
	if inst.Conns[0].Name != "clk" {
		t.Errorf("named conn = %+v", inst.Conns[0])
	}
	if init == nil {
		t.Fatal("no initial block")
	}
	blk := init.Body.(*Block)
	if len(blk.Stmts) < 6 {
		t.Fatalf("initial stmts = %d", len(blk.Stmts))
	}
}

func TestParseErrorRecovery(t *testing.T) {
	src := `
module bad(input a, output b)
  assign b = a &;
  wire w
  assign w = a;
endmodule`
	_, diags := Parse("bad.v", src)
	if !diags.HasErrors() {
		t.Fatal("expected errors")
	}
	if diags.ErrorCount() < 2 {
		t.Errorf("want multiple errors from recovery, got %d: %v", diags.ErrorCount(), diags)
	}
	// Every diagnostic has a position and snippet.
	for _, d := range diags {
		if d.Line == 0 {
			t.Errorf("diag without line: %v", d)
		}
	}
}

func TestParseMissingSemicolon(t *testing.T) {
	src := `module m(input a, output reg b);
  always @(*) begin
    b = a
  end
endmodule`
	_, diags := Parse("m.v", src)
	if !diags.HasErrors() {
		t.Fatal("missing semicolon must error")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, ";") || strings.Contains(d.Message, "syntax error") {
			found = true
		}
	}
	if !found {
		t.Errorf("no semicolon-ish diagnostic in %v", diags)
	}
}

func TestParseMissingEndmodule(t *testing.T) {
	_, diags := Parse("m.v", "module m(input a);\n  wire w;\n")
	if !diags.HasErrors() {
		t.Fatal("expected missing endmodule error")
	}
}

func TestParseNonANSIPorts(t *testing.T) {
	src := `module m(a, b, y);
  input a, b;
  output reg y;
  always @(*) y = a & b;
endmodule`
	sf := mustParse(t, src)
	m := sf.Modules[0]
	if len(m.Ports) != 3 {
		t.Fatalf("ports = %d", len(m.Ports))
	}
	if m.Ports[0].Dir != DirInput || m.Ports[2].Dir != DirOutput || !m.Ports[2].IsReg {
		t.Errorf("non-ANSI dirs not resolved: %+v %+v", m.Ports[0], m.Ports[2])
	}
}

func TestParseForLoop(t *testing.T) {
	src := `module m(input [7:0] in, output reg [7:0] out);
  integer i;
  always @(*) begin
    for (i = 0; i < 8; i = i + 1)
      out[i] = in[7 - i];
  end
endmodule`
	sf := mustParse(t, src)
	alw := findAlways(sf.Modules[0])
	blk := alw.Body.(*Block)
	if _, ok := blk.Stmts[0].(*For); !ok {
		t.Fatalf("stmt = %T", blk.Stmts[0])
	}
}

func TestParsePartSelects(t *testing.T) {
	src := `module m(input [15:0] x, output [7:0] y);
  assign y = x[11:4];
endmodule`
	sf := mustParse(t, src)
	var ca *ContAssign
	for _, it := range sf.Modules[0].Items {
		if c, ok := it.(*ContAssign); ok {
			ca = c
		}
	}
	if _, ok := ca.RHS.(*PartSelect); !ok {
		t.Fatalf("rhs = %T", ca.RHS)
	}
}

func TestExprStringStable(t *testing.T) {
	src := `module m(input a, b, output y);
  assign y = (a & ~b) | (a ^ b);
endmodule`
	sf := mustParse(t, src)
	var ca *ContAssign
	for _, it := range sf.Modules[0].Items {
		if c, ok := it.(*ContAssign); ok {
			ca = c
		}
	}
	s := ExprString(ca.RHS)
	if !strings.Contains(s, "&") || !strings.Contains(s, "~b") {
		t.Errorf("ExprString = %q", s)
	}
}

func TestParseWaitStatement(t *testing.T) {
	src := `module tb;
  reg go;
  initial begin
    wait (go);
    wait (go) go = 0;
  end
endmodule`
	sf := mustParse(t, src)
	blk := sf.Modules[0].Items[1].(*InitialBlock).Body.(*Block)
	w1, ok := blk.Stmts[0].(*WaitStmt)
	if !ok {
		t.Fatalf("stmt 0 = %T", blk.Stmts[0])
	}
	if _, ok := w1.Body.(*Null); !ok {
		t.Errorf("bare wait body = %T", w1.Body)
	}
	w2 := blk.Stmts[1].(*WaitStmt)
	if _, ok := w2.Body.(*Assign); !ok {
		t.Errorf("wait-with-stmt body = %T", w2.Body)
	}
}

func TestParseSignedDeclarations(t *testing.T) {
	src := `module m(input signed [7:0] a, output signed [7:0] y);
  wire signed [7:0] w;
  assign w = a;
  assign y = w;
endmodule`
	sf := mustParse(t, src)
	m := sf.Modules[0]
	if !m.Ports[0].Signed {
		t.Error("input signed flag lost")
	}
	var nd *NetDecl
	for _, it := range m.Items {
		if d, ok := it.(*NetDecl); ok {
			nd = d
		}
	}
	if nd == nil || !nd.Signed {
		t.Error("wire signed flag lost")
	}
}

func TestParseNumberSignedness(t *testing.T) {
	sf := mustParse(t, `module m(output [7:0] y);
  assign y = 5 + 8'd3 + 8'sd2;
endmodule`)
	var ca *ContAssign
	for _, it := range sf.Modules[0].Items {
		if c, ok := it.(*ContAssign); ok {
			ca = c
		}
	}
	// Walk the + tree collecting Number nodes.
	var nums []*Number
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Number:
			nums = append(nums, x)
		}
	}
	walk(ca.RHS)
	if len(nums) != 3 {
		t.Fatalf("nums = %d", len(nums))
	}
	if !nums[0].Signed { // bare 5
		t.Error("unsized decimal must be signed")
	}
	if nums[1].Signed { // 8'd3
		t.Error("8'd3 must be unsigned")
	}
	if !nums[2].Signed { // 8'sd2
		t.Error("8'sd2 must be signed")
	}
}

// TestParseParameterLists pins the parameter lists that need the
// parser's lookahead past the current token: in a header, `, NAME`
// continues one declaration and `, parameter` starts the next; in the
// body, `, NAME` continues a localparam.
func TestParseParameterLists(t *testing.T) {
	sf := mustParse(t, `module m #(parameter A = 1, B = 2, parameter C = 3) (input x, output y);
  localparam D = 4, E = 5;
  assign y = x;
endmodule
`)
	var got []string
	for _, it := range sf.Modules[0].Items {
		if p, ok := it.(*ParamDecl); ok {
			name := p.Name
			if p.IsLocal {
				name = "local " + name
			}
			got = append(got, fmt.Sprintf("%s@%v", name, p.Pos))
		}
	}
	want := "A@1:22 B@1:29 C@1:46 local D@2:14 local E@2:21"
	if strings.Join(got, " ") != want {
		t.Errorf("parameters %q, want %q", strings.Join(got, " "), want)
	}
}
