package vhdl

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// checkChainSrc is an architecture instantiating a chain of n copies
// of one small clocked entity, each feeding the next.
func checkChainSrc(n int) string {
	var sb strings.Builder
	sb.WriteString(`
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity stage is
  port (clk : in std_logic; d : in std_logic_vector(7 downto 0); q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of stage is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      q <= std_logic_vector(unsigned(d) + 1);
    end if;
  end process;
end architecture;
library ieee;
use ieee.std_logic_1164.all;
entity top is
  port (clk : in std_logic; y : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of top is
`)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&sb, "  signal w%d : std_logic_vector(7 downto 0) := (others => '0');\n", i)
	}
	sb.WriteString("begin\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  s%d: entity work.stage port map (clk => clk, d => w%d, q => w%d);\n", i, i, i+1)
	}
	fmt.Fprintf(&sb, "  y <= w%d;\nend architecture;\n", n)
	return sb.String()
}

// checkAllocBytes returns the heap bytes one Check of src allocates;
// parsing is outside the measurement.
func checkAllocBytes(t *testing.T, src string) uint64 {
	t.Helper()
	df, pd := Parse("chain.vhd", src)
	if pd.HasErrors() {
		t.Fatalf("parse: %v", pd)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	diags := Check("chain.vhd", df, nil)
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
