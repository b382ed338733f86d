package vhdlsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vhdl"
)

// TestVHDLCounterAllocBound is the VHDL front-end allocation guard: a
// ~2000-cycle clocked-counter run must stay within a small constant
// allocation budget. Scheduled signal updates travel as pooled kernel
// records (sim.NBARecord) rather than closures, and small vectors are
// inline values, so the steady-state loop allocates nothing; a
// per-cycle regression shows up here as thousands of allocations.
func TestVHDLCounterAllocBound(t *testing.T) {
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
		df, diags := vhdl.Parse("alloc.vhd", s)
		if diags.HasErrors() {
			t.Fatalf("parse: %v", diags)
		}
		units = append(units, df)
	}
	avg := testing.AllocsPerRun(3, func() {
		res, err := Simulate(units, "tb", Options{MaxTime: 100000})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if res.TimedOut || res.AssertErrors != 0 || res.Fault != "" {
			t.Fatalf("bad run (timeout=%v errors=%d fault=%q)", res.TimedOut, res.AssertErrors, res.Fault)
		}
	})
	// The whole run currently costs ~150 allocations (elaboration and
	// result assembly); the bound leaves headroom while catching any
	// per-cycle allocation (2000 cycles would add >= 2000).
	if avg > 600 {
		t.Errorf("VHDL counter run allocations = %v, want <= 600 (per-cycle allocation regression)", avg)
	}
}

// chainSrc returns the sources of a testbench driving a chain of n
// instances of one small clocked entity, each feeding the next, for ten
// clock cycles.
func chainSrc(n int) []string {
	const stage = `
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
`
	var sb strings.Builder
	sb.WriteString(`
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
`)
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&sb, "  signal w%d : std_logic_vector(7 downto 0) := (others => '0');\n", i)
	}
	sb.WriteString("begin\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  s%d: entity work.stage port map (clk => clk, d => w%d, q => w%d);\n", i, i, i+1)
	}
	sb.WriteString(`  stim: process
  begin
    for i in 1 to 20 loop
      wait for 1 ns;
      clk <= not clk;
    end loop;
    report "done";
    wait;
  end process;
end architecture;
`)
	return []string{stage, sb.String()}
}

// elabSimAllocBytes returns the heap bytes one Elaborate plus
// SimulateDesign of units allocates.
func elabSimAllocBytes(t *testing.T, units []*vhdl.DesignFile) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Elaborate(units, "tb")
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res := SimulateDesign(d, Options{MaxTime: 100000})
	runtime.ReadMemStats(&after)
	if res.TimedOut || res.AssertErrors != 0 || res.Fault != "" {
		t.Fatalf("chain did not finish cleanly: %s", res.Log)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestElaborateAllocLinear guards elaboration and simulation against
// superlinear cost in design size: a chain of 8N instances may
// allocate at most 10x the heap bytes of a chain of N. Parsing is
// outside the measurement (TestLexParseAllocLinear guards it).
func TestElaborateAllocLinear(t *testing.T) {
	const n = 50
	small := elabSimAllocBytes(t, parseElabUnits(t, chainSrc(n)...))
	large := elabSimAllocBytes(t, parseElabUnits(t, chainSrc(8*n)...))
	t.Logf("%d instances: %d bytes; %d instances: %d bytes", n, small, 8*n, large)
	if large > 10*small {
		t.Errorf("%d instances allocated %d bytes, more than 10x the %d of %d instances", 8*n, large, small, n)
	}
}

// forLoopSrc returns a clocked parity design whose process runs a
// for loop on every rising edge, under a testbench of the given number
// of rising clock edges.
func forLoopSrc(edges int) []string {
	const par = `
entity par is
  port (clk : in std_logic; d : in std_logic_vector(7 downto 0); p : out std_logic);
end entity;
architecture rtl of par is
begin
  process(clk)
    variable x : std_logic;
  begin
    if rising_edge(clk) then
      x := '0';
      for i in 0 to 7 loop
        x := x xor d(i);
      end loop;
      p <= x;
    end if;
  end process;
end architecture;
`
	tb := fmt.Sprintf(`
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal done : std_logic := '0';
  signal d : std_logic_vector(7 downto 0) := x"A7";
  signal p : std_logic;
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  uut: entity work.par port map (clk => clk, d => d, p => p);
  stim: process
  begin
    wait for %d ns;
    assert p = '1' report "parity mismatch" severity error;
    done <= '1';
    wait;
  end process;
end architecture;
`, 2*edges)
	return []string{par, tb}
}

// TestVHDLForLoopAllocFlat guards the statement machine's loop state:
// a clocked process that runs a for loop on every edge must allocate
// no more on a run of 4N edges than on a run of N, within a small
// constant. The loop variable lives in the machine's per-op slot, so
// entering a loop binds it without allocating.
func TestVHDLForLoopAllocFlat(t *testing.T) {
	const n = 200
	allocs := func(edges int) float64 {
		units := parseElabUnits(t, forLoopSrc(edges)...)
		return testing.AllocsPerRun(3, func() {
			res, err := Simulate(units, "tb", Options{MaxTime: 100000})
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if res.TimedOut || res.AssertErrors != 0 || res.Fault != "" {
				t.Fatalf("bad run (timeout=%v errors=%d fault=%q):\n%s", res.TimedOut, res.AssertErrors, res.Fault, res.Log)
			}
		})
	}
	small, large := allocs(n), allocs(4*n)
	t.Logf("%d edges: %v allocs; %d edges: %v allocs", n, small, 4*n, large)
	if large > small+16 {
		t.Errorf("%d edges allocated %v, more than the %v of %d edges plus 16 (per-iteration allocation in the for loop)", 4*n, large, small, n)
	}
}
