// Vhdl_counter exercises the language-agnostic side of the framework:
// the same pipeline, agents, and EDA tooling targeting VHDL, on a
// parameterised counter. It also shows direct use of the edatool
// facades for compiling and simulating hand-written VHDL.
//
//	go run ./examples/vhdl_counter
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
)

func main() {
	cell, err := exp.RemoteCell{Problem: "counter_load_w8", Model: "gpt-4o", Language: "vhdl"}.Resolve(bench.NewSuite())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== VHDL flow: loadable counter ===")
	fmt.Printf("spec: %s\n\n", cell.Problem.Spec)

	cfg := cell.Config
	cfg.Trace = func(stage, detail string) { fmt.Printf("  [%-9s] %s\n", stage, detail) }
	out, res, err := exp.Evaluate(context.Background(), cell, cfg, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsyntax=%v selfVerified=%v referenceBench=%v\n\n",
		res.SyntaxOK, res.SelfVerified, out.LoopFuncOK)

	// Direct EDA-tool usage: compile and simulate hand-written VHDL.
	design := `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity blinker is
  port (clk : in std_logic; led : out std_logic);
end entity;
architecture rtl of blinker is
  signal cnt : unsigned(2 downto 0) := (others => '0');
begin
  process(clk)
  begin
    if rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  led <= cnt(2);
end architecture;
`
	tb := `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal led : std_logic;
  signal done : std_logic := '0';
begin
  clk <= not clk after 5 ns when done = '0' else '0';
  uut: entity work.blinker port map (clk => clk, led => led);
  process
  begin
    wait for 45 ns;
    assert led = '1' report "Test Case 1 Failed: led should be high after 4 cycles" severity error;
    report "All tests passed successfully!";
    done <= '1';
    wait;
  end process;
end architecture;
`
	sim := edatool.Simulate(nil, edatool.VHDL, "tb", 10_000,
		edatool.Source{Name: "blinker.vhd", Text: design},
		edatool.Source{Name: "tb.vhd", Text: tb},
	)
	fmt.Println("hand-written VHDL simulation log:")
	fmt.Print(sim.Log)
	fmt.Printf("passed=%v\n", sim.Passed)
}
