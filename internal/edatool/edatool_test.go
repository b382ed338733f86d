package edatool

import (
	"strings"
	"testing"
)

const goodVerilog = `module top(input a, output y);
  assign y = ~a;
endmodule`

const badVerilog = `module top(input a, output y);
  assign y = ~b;
endmodule`

func TestCompileCleanVerilog(t *testing.T) {
	res := Compile(nil, Verilog, Source{Name: "d.v", Text: goodVerilog})
	if !res.OK {
		t.Fatalf("log:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "Total syntax errors: 0") ||
		!strings.Contains(res.Log, "Successful compilation.") {
		t.Errorf("log format:\n%s", res.Log)
	}
	if res.Modules["top"] == nil {
		t.Error("module not registered")
	}
}

func TestCompileBadVerilogLogFormat(t *testing.T) {
	res := Compile(nil, Verilog, Source{Name: "design.v", Text: badVerilog})
	if res.OK {
		t.Fatal("should fail")
	}
	if !strings.Contains(res.Log, "ERROR: [VRFC") {
		t.Errorf("missing Vivado-style error:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "[design.v:2]") {
		t.Errorf("missing location:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "assign y = ~b;") {
		t.Errorf("missing snippet:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "Total syntax errors: 1") {
		t.Errorf("missing count:\n%s", res.Log)
	}
}

func TestCompileMultiFileOrdering(t *testing.T) {
	dut := Source{Name: "dut.v", Text: goodVerilog}
	tb := Source{Name: "tb.v", Text: `module tb;
  reg a; wire y;
  top u0(.a(a), .y(y));
  initial begin a = 0; #1; $finish; end
endmodule`}
	res := Compile(nil, Verilog, dut, tb)
	if !res.OK {
		t.Fatalf("TB should see DUT module:\n%s", res.Log)
	}
}

func TestCompileVHDL(t *testing.T) {
	res := Compile(nil, VHDL, Source{Name: "d.vhd", Text: `
entity inv is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of inv is begin y <= not a; end architecture;`})
	if !res.OK {
		t.Fatalf("log:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "xvhdl") {
		t.Errorf("VHDL log should use xvhdl:\n%s", res.Log)
	}
}

func TestSimulatePassAndJudge(t *testing.T) {
	tb := Source{Name: "tb.v", Text: `module tb;
  reg a; wire y;
  top u0(.a(a), .y(y));
  initial begin
    a = 0; #1;
    if (y !== 1'b1) $display("Test Case 1 Failed: y expected 1 got %d", y);
    else $display("All tests passed successfully!");
    $finish;
  end
endmodule`}
	res := Simulate(nil, Verilog, "tb", 0, Source{Name: "d.v", Text: goodVerilog}, tb)
	if !res.Passed {
		t.Errorf("log:\n%s", res.Log)
	}
	if res.LatencyModel <= 0 {
		t.Error("latency model not populated")
	}
}

func TestSimulateFailJudged(t *testing.T) {
	buggy := Source{Name: "d.v", Text: `module top(input a, output y);
  assign y = a;
endmodule`}
	tb := Source{Name: "tb.v", Text: `module tb;
  reg a; wire y;
  top u0(.a(a), .y(y));
  initial begin
    a = 0; #1;
    if (y !== 1'b1) $display("Test Case 1 Failed: y expected 1 got %d", y);
    else $display("All tests passed successfully!");
    $finish;
  end
endmodule`}
	res := Simulate(nil, Verilog, "tb", 0, buggy, tb)
	if res.Passed {
		t.Errorf("buggy design judged passed:\n%s", res.Log)
	}
	if !strings.Contains(res.Log, "Test Case 1 Failed") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimulateCompileErrorShortCircuits(t *testing.T) {
	res := Simulate(nil, Verilog, "tb", 0, Source{Name: "d.v", Text: badVerilog})
	if res.Passed || !res.Failed {
		t.Error("compile failure must fail the simulation result")
	}
	if !strings.Contains(res.Log, "ERROR") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestSimulateVHDLAssertCounting(t *testing.T) {
	design := Source{Name: "d.vhd", Text: `
entity buf1 is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of buf1 is begin y <= a; end architecture;`}
	tb := Source{Name: "tb.vhd", Text: `
entity tb is end entity;
architecture sim of tb is
  signal a, y : std_logic := '0';
begin
  uut: entity work.buf1 port map (a => a, y => y);
  process
  begin
    a <= '1';
    wait for 1 ns;
    assert y = '0' report "Test Case 1 Failed: y expected 0" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`}
	res := Simulate(nil, VHDL, "tb", 0, design, tb)
	// The assert fires (y='1'), so even though the pass marker prints,
	// the run must be judged failed.
	if res.Passed {
		t.Errorf("assert error must fail the run:\n%s", res.Log)
	}
}

func TestLanguageString(t *testing.T) {
	if Verilog.String() != "Verilog" || VHDL.String() != "VHDL" {
		t.Error("Language.String broken")
	}
}
