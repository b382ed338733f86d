package vhdlsim

import (
	"testing"

	"repro/internal/vhdl"
)

// BenchmarkVHDLSimCounter mirrors vsim's BenchmarkSimCounter for the
// VHDL front-end: parse once, then elaborate + run a clocked 16-bit
// counter for ~2000 cycles per iteration. Together the two benchmarks
// feed BENCH_hdl.json so kernel regressions are visible from both
// interpreters (see docs/PERFORMANCE.md).
func BenchmarkVHDLSimCounter(b *testing.B) {
	src := `
entity counter is
  port (clk : in std_logic; reset : in std_logic; count : out std_logic_vector(15 downto 0));
end entity;
architecture rtl of counter is
  signal cnt : unsigned(15 downto 0) := (others => '0');
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        cnt <= (others => '0');
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  count <= std_logic_vector(cnt);
end architecture;
`
	tb := `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal reset : std_logic := '1';
  signal done : std_logic := '0';
  signal count : std_logic_vector(15 downto 0);
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  uut: entity work.counter port map (clk => clk, reset => reset, count => count);
  stim: process
  begin
    wait for 2 ns;
    reset <= '0';
    wait for 4000 ns;
    assert count /= x"0000" report "counter never advanced" severity error;
    done <= '1';
    wait;
  end process;
end architecture;`
	var units []*vhdl.DesignFile
	for _, s := range []string{src, tb} {
		df, diags := vhdl.Parse("bench.vhd", s)
		if diags.HasErrors() {
			b.Fatalf("parse: %v", diags)
		}
		units = append(units, df)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(units, "tb", Options{MaxTime: 100000})
		if err != nil {
			b.Fatalf("simulate: %v", err)
		}
		if res.TimedOut || res.AssertErrors != 0 || res.Fault != "" {
			b.Fatalf("bad run (timeout=%v errors=%d fault=%q):\n%s",
				res.TimedOut, res.AssertErrors, res.Fault, res.Log)
		}
	}
}
