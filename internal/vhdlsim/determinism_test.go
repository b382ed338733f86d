package vhdlsim

import (
	"sync"
	"testing"

	"repro/internal/vhdl"
)

// TestVHDLSimulateDeterministicLog is the VHDL counterpart of vsim's
// VCD determinism test: two runs of the same design must produce
// byte-identical logs and end times under the direct-dispatch kernel.
func TestVHDLSimulateDeterministicLog(t *testing.T) {
	src := `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal done : std_logic := '0';
  signal n : integer := 0;
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  count: process(clk)
  begin
    if rising_edge(clk) then
      n <= n + 1;
    end if;
  end process;
  watch: process(n)
  begin
    if n = 5 then
      report "n reached five";
    end if;
  end process;
  stim: process
  begin
    wait for 20 ns;
    report "n is now " & "sampled";
    assert n > 0 report "clock never ticked" severity error;
    done <= '1';
    wait;
  end process;
end architecture;`
	df, diags := vhdl.Parse("det.vhd", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	runOnce := func() *Result {
		res, err := Simulate([]*vhdl.DesignFile{df}, "tb", Options{MaxTime: 100000})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if res.AssertErrors != 0 || res.TimedOut {
			t.Fatalf("bad run: %s", res.Log)
		}
		return res
	}
	r1, r2 := runOnce(), runOnce()
	if r1.Log != r2.Log {
		t.Errorf("log differs between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", r1.Log, r2.Log)
	}
	if r1.EndTime != r2.EndTime {
		t.Errorf("end time differs: %d vs %d", r1.EndTime, r2.EndTime)
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

// TestWorkersIdentical runs the counter on 1, 2 and 4 concurrent
// workers, each elaborating its own design from one shared parse as
// sweep workers do; every run must agree byte for byte with a lone run.
func TestWorkersIdentical(t *testing.T) {
	f, diags := vhdl.Parse("tb.vhd", counterSrcVHDL)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	run := func() (*Result, error) {
		d, err := Elaborate([]*vhdl.DesignFile{f}, "tb")
		if err != nil {
			return nil, err
		}
		return SimulateDesign(d, Options{MaxTime: 100000, CaptureFinal: true}), nil
	}
	base, err := run()
	if err != nil {
		t.Fatalf("elab: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		runs := make([]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[w], errs[w] = run()
			}()
		}
		wg.Wait()
		for w, r := range runs {
			if errs[w] != nil {
				t.Fatalf("workers=%d: elab: %v", workers, errs[w])
			}
			compareRuns(t, "concurrent worker vs lone run", base, r)
		}
	}
}
