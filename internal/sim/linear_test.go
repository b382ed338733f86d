package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// linearTerms is the smaller chain length of TestEvalLinearTime; the
// larger is eight times as long.
const linearTerms = 1000

// chainVerilog is a testbench whose continuous assignment is an n-term
// expression chain, re-evaluated on three changes of its operands.
func chainVerilog(n int, ternary bool) string {
	var e strings.Builder
	for i := 0; i < n; i++ {
		if ternary {
			e.WriteString("c ? a : ")
		} else {
			e.WriteString("a + ")
		}
	}
	e.WriteString("a")
	return fmt.Sprintf(`module tb;
  reg [15:0] a;
  reg c;
  wire [15:0] y = %s;
  initial begin
    a = 1; c = 0;
    #1 a = 2;
    #1 c = 1;
    #1 a = 3;
    #1 $display("y=%%0d", y);
  end
endmodule
`, e.String())
}

// chainVHDL is chainVerilog's VHDL twin: a concurrent assignment of an
// n-term sum, or of n conditional waveforms.
func chainVHDL(n int, ternary bool) string {
	var e strings.Builder
	for i := 0; i < n; i++ {
		if ternary {
			e.WriteString("a when c = '1' else ")
		} else {
			e.WriteString("a + ")
		}
	}
	e.WriteString("a")
	return fmt.Sprintf(`library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal a, y : unsigned(15 downto 0);
  signal c : std_logic := '0';
begin
  y <= %s;
  process
  begin
    a <= to_unsigned(1, 16);
    wait for 1 ns;
    a <= to_unsigned(2, 16);
    wait for 1 ns;
    c <= '1';
    wait for 1 ns;
    a <= to_unsigned(3, 16);
    wait for 1 ns;
    report "y=" & y;
    wait;
  end process;
end architecture;
`, e.String())
}

// simTime returns the least of three simulations' wall times of src,
// compiled once.
func simTime(t *testing.T, lang edatool.Language, src string) time.Duration {
	t.Helper()
	comp := compileOne(t, lang, "chain", src)
	best := time.Duration(1 << 62)
	for range 3 {
		start := time.Now()
		var fault string
		if lang == edatool.Verilog {
			res, err := vsim.Simulate(comp.Modules, bench.TBName, vsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fault = res.Fault
		} else {
			res, err := vhdlsim.Simulate(comp.Units, bench.TBName, vhdlsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fault = res.Fault
		}
		if fault != "" {
			t.Fatalf("chain faulted: %s", fault)
		}
		best = min(best, time.Since(start))
	}
	return best
}

// TestEvalLinearTime bounds what an expression costs to evaluate: an
// 8N-term chain of additions, or of nested conditionals, must simulate
// in well under 64 times (quadratic) the time of an N-term one. A
// Verilog evaluator that re-derives every operand's natural width from
// its subtree at every node takes 40 to 85 times as long.
func TestEvalLinearTime(t *testing.T) {
	const bound = 24
	for _, c := range []struct {
		name    string
		lang    edatool.Language
		render  func(n int, ternary bool) string
		ternary bool
	}{
		{"verilog-sum", edatool.Verilog, chainVerilog, false},
		{"verilog-ternary", edatool.Verilog, chainVerilog, true},
		{"vhdl-sum", edatool.VHDL, chainVHDL, false},
		{"vhdl-when-else", edatool.VHDL, chainVHDL, true},
	} {
		small := simTime(t, c.lang, c.render(linearTerms, c.ternary))
		large := simTime(t, c.lang, c.render(8*linearTerms, c.ternary))
		ratio := float64(large) / float64(max(small, time.Microsecond))
		t.Logf("%s: %d terms %v, %d terms %v (%.1fx)", c.name, linearTerms, small, 8*linearTerms, large, ratio)
		if ratio > bound {
			t.Errorf("%s: %d terms take %.1fx the time of %d, want at most %dx", c.name, 8*linearTerms, ratio, linearTerms, bound)
		}
	}
}
