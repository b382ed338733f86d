package vhdlsim

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/vhdl"
)

// runBoth elaborates src fresh for each backend mode and returns both
// results, failing the test on parse or elaboration errors.
func runBoth(t *testing.T, src, top string) (compiled, interp *Result) {
	t.Helper()
	f, errs := vhdl.Parse("tb.vhd", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	run := func(mode sim.BackendMode) *Result {
		d, err := Elaborate([]*vhdl.DesignFile{f}, top)
		if err != nil {
			t.Fatalf("elab: %v", err)
		}
		return SimulateDesign(d, Options{MaxTime: 100000, CaptureFinal: true, Backend: mode})
	}
	return run(sim.BackendAuto), run(sim.BackendInterpret)
}

// requireIdentical asserts the two backends produced byte-identical
// observable output.
func requireIdentical(t *testing.T, rc, ri *Result) {
	t.Helper()
	if rc.Log != ri.Log {
		t.Fatalf("log mismatch:\ncompiled: %q\ninterp: %q", rc.Log, ri.Log)
	}
	if len(rc.Final) != len(ri.Final) {
		t.Fatalf("final-state size mismatch: %d vs %d", len(rc.Final), len(ri.Final))
	}
	for k, v := range ri.Final {
		if rc.Final[k] != v {
			t.Fatalf("final %s: compiled %q interp %q", k, rc.Final[k], v)
		}
	}
	if rc.Fault != ri.Fault || rc.Failed != ri.Failed || rc.TimedOut != ri.TimedOut {
		t.Fatalf("outcome mismatch: compiled %+v interp %+v", rc, ri)
	}
}

const counterSrcVHDL = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  port (clk : in std_logic; rst : in std_logic; count : out unsigned(15 downto 0));
end entity;

architecture rtl of counter is
  signal c : unsigned(15 downto 0) := (others => '0');
begin
  count <= c;
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        c <= (others => '0');
      else
        c <= c + 1;
      end if;
    end if;
  end process;
end architecture;

entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal rst : std_logic := '1';
  signal count : unsigned(15 downto 0);
begin
  dut : entity work.counter port map (clk => clk, rst => rst, count => count);
  process
  begin
    rst <= '0';
    for i in 0 to 200 loop
      clk <= '1'; wait for 1 ns;
      clk <= '0'; wait for 1 ns;
    end loop;
    report "done" severity note;
    wait;
  end process;
end architecture;
`

// TestBackendCompiledEngages pins that a plain clocked counter runs on
// the compiled fast path (process and concurrent assignment both
// specialize) with output byte-identical to the interpreter.
func TestBackendCompiledEngages(t *testing.T) {
	rc, ri := runBoth(t, counterSrcVHDL, "tb")
	requireIdentical(t, rc, ri)
	if rc.Backend.CompiledProcs == 0 {
		t.Fatalf("expected compiled procs, got %+v", rc.Backend)
	}
	if rc.Backend.CompiledAssigns == 0 {
		t.Fatalf("expected compiled assigns, got %+v", rc.Backend)
	}
	if rc.Backend.Mode != "compiled" || ri.Backend.Mode != "interpret" {
		t.Fatalf("mode mismatch: %q / %q", rc.Backend.Mode, ri.Backend.Mode)
	}
	if ri.Backend.CompiledProcs != 0 || ri.Backend.CompiledAssigns != 0 {
		t.Fatalf("interpret mode must not compile: %+v", ri.Backend)
	}
	if !strings.Contains(rc.Log, "done") {
		t.Fatalf("testbench did not run: %q", rc.Log)
	}
}

// TestBackendFallbackOnX drives a compiled process across the
// two-state boundary: the data input is released to a known value,
// later forced back to 'X' mid-run, then released again. Activations
// that observe the X must fall back to the 4-state interpreter and
// still produce byte-identical output.
func TestBackendFallbackOnX(t *testing.T) {
	src := `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity acc is
  port (clk : in std_logic; clr : in std_logic; d : in unsigned(7 downto 0); q : out unsigned(7 downto 0));
end entity;

architecture rtl of acc is
  signal r : unsigned(7 downto 0) := (others => '0');
begin
  q <= r;
  process(clk)
  begin
    if rising_edge(clk) then
      if clr = '1' then
        r <= (others => '0');
      else
        r <= r + d;
      end if;
    end if;
  end process;
end architecture;

entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal clr : std_logic := '0';
  signal d : unsigned(7 downto 0);
  signal q : unsigned(7 downto 0);
begin
  dut : entity work.acc port map (clk => clk, clr => clr, d => d, q => q);
  process
  begin
    d <= to_unsigned(3, 8);
    for i in 0 to 9 loop
      clk <= '1'; wait for 1 ns;
      clk <= '0'; wait for 1 ns;
    end loop;
    -- Force the datapath back into the 4-state domain mid-run.
    d <= (others => 'X');
    for i in 0 to 4 loop
      clk <= '1'; wait for 1 ns;
      clk <= '0'; wait for 1 ns;
    end loop;
    -- Clear the contaminated accumulator, then resume two-state.
    clr <= '1';
    clk <= '1'; wait for 1 ns;
    clk <= '0'; wait for 1 ns;
    clr <= '0';
    d <= to_unsigned(1, 8);
    for i in 0 to 9 loop
      clk <= '1'; wait for 1 ns;
      clk <= '0'; wait for 1 ns;
    end loop;
    report "fallback done" severity note;
    wait;
  end process;
end architecture;
`
	rc, ri := runBoth(t, src, "tb")
	requireIdentical(t, rc, ri)
	if rc.Backend.CompiledProcs == 0 {
		t.Fatalf("expected a compiled process, got %+v", rc.Backend)
	}
	if rc.Backend.Fallbacks == 0 {
		t.Fatalf("expected X-guard fallbacks, got %+v", rc.Backend)
	}
	if ri.Backend.Fallbacks != 0 {
		t.Fatalf("interpret mode cannot fall back: %+v", ri.Backend)
	}
	// The accumulator must have recovered to a fully known value.
	final := rc.Final["tb.dut.r"]
	if strings.ContainsAny(final, "xXuU") {
		t.Fatalf("accumulator did not recover from X: %q", final)
	}
}

// TestBackendWorkersIdentical runs the counter in both modes on 1, 2
// and 4 concurrent workers, each elaborating its own design from one
// shared parse as sweep workers do; every run must agree byte for byte
// with a lone run.
func TestBackendWorkersIdentical(t *testing.T) {
	base, _ := runBoth(t, counterSrcVHDL, "tb")
	f, errs := vhdl.Parse("tb.vhd", counterSrcVHDL)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	for _, workers := range []int{1, 2, 4} {
		runs := make([][2]*Result, workers)
		elabErrs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, mode := range []sim.BackendMode{sim.BackendAuto, sim.BackendInterpret} {
					d, err := Elaborate([]*vhdl.DesignFile{f}, "tb")
					if err != nil {
						elabErrs[w] = err
						return
					}
					runs[w][i] = SimulateDesign(d, Options{MaxTime: 100000, CaptureFinal: true, Backend: mode})
				}
			}()
		}
		wg.Wait()
		for w, r := range runs {
			if elabErrs[w] != nil {
				t.Fatalf("workers=%d: elab: %v", workers, elabErrs[w])
			}
			requireIdentical(t, r[0], r[1])
			if r[0].Log != base.Log {
				t.Fatalf("workers=%d: worker %d log diverged from a lone run", workers, w)
			}
		}
	}
}
