package vhdlsim

import (
	"testing"

	"repro/internal/vhdl"
)

// Elaboration must be invisible in results; these mirror the vsim
// elaboration tests for the VHDL front-end.

const elabCounterEnt = `
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

const elabCounterTB = `
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
    wait for 40 ns;
    report "final count observed";
    done <= '1';
    wait;
  end process;
end architecture;`

func parseElabUnits(t testing.TB, srcs ...string) []*vhdl.DesignFile {
	t.Helper()
	var units []*vhdl.DesignFile
	for i, src := range srcs {
		df, diags := vhdl.Parse("t.vhd", src)
		if diags.HasErrors() {
			t.Fatalf("parse errors in source %d: %v", i, diags)
		}
		units = append(units, df)
	}
	return units
}

func mustSimDesign(t testing.TB, d *Design) *Result {
	t.Helper()
	res := SimulateDesign(d, Options{MaxTime: 100000, CaptureFinal: true})
	if res.Fault != "" {
		t.Fatalf("fault: %s\nlog:\n%s", res.Fault, res.Log)
	}
	return res
}

func compareRuns(t *testing.T, label string, cold, warm *Result) {
	t.Helper()
	if warm.Log != cold.Log {
		t.Errorf("%s: log differs\ncold:\n%s\nwarm:\n%s", label, cold.Log, warm.Log)
	}
	if warm.EndTime != cold.EndTime {
		t.Errorf("%s: end time %v != %v", label, warm.EndTime, cold.EndTime)
	}
	if warm.Events != cold.Events {
		t.Errorf("%s: events %d != %d", label, warm.Events, cold.Events)
	}
	if warm.AssertErrors != cold.AssertErrors {
		t.Errorf("%s: assert errors %d != %d", label, warm.AssertErrors, cold.AssertErrors)
	}
	if len(warm.Final) != len(cold.Final) {
		t.Fatalf("%s: final value count %d != %d", label, len(warm.Final), len(cold.Final))
	}
	for name, v := range cold.Final {
		if warm.Final[name] != v {
			t.Errorf("%s: final %s = %q, cold %q", label, name, warm.Final[name], v)
		}
	}
}

// TestIncrementalReelaboration swaps the DUT unit under a fixed
// testbench AST, as edatool's parse memo does in the repair loop:
// re-elaborating either configuration, alternately, keeps producing
// that configuration's first output.
func TestIncrementalReelaboration(t *testing.T) {
	const dutDown = `
entity counter is
  port (clk : in std_logic; reset : in std_logic; count : out std_logic_vector(15 downto 0));
end entity;
architecture rtl of counter is
  signal cnt : unsigned(15 downto 0) := (others => '1');
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        cnt <= (others => '1');
      else
        cnt <= cnt - 1;
      end if;
    end if;
  end process;
  count <= std_logic_vector(cnt);
end architecture;
`
	tbUnit := parseElabUnits(t, elabCounterTB)[0]
	up := []*vhdl.DesignFile{parseElabUnits(t, elabCounterEnt)[0], tbUnit}
	down := []*vhdl.DesignFile{parseElabUnits(t, dutDown)[0], tbUnit}

	elabSim := func(units []*vhdl.DesignFile) *Result {
		d, err := Elaborate(units, "tb")
		if err != nil {
			t.Fatalf("elaborate: %v", err)
		}
		return mustSimDesign(t, d)
	}
	upRes, downRes := elabSim(up), elabSim(down)
	if upRes.Final["tb.count"] == downRes.Final["tb.count"] {
		t.Fatalf("test is vacuous: both DUT variants end at count=%q", upRes.Final["tb.count"])
	}
	for i := 0; i < 2; i++ {
		compareRuns(t, "incremental up", upRes, elabSim(up))
		compareRuns(t, "incremental down", downRes, elabSim(down))
	}
}

// TestRepeatedInstancesKeepState: multi-instance elaboration keeps
// per-instance state. One entity is instantiated twice under equal
// generics and once under different ones; the equal pair must still
// end in different states (u1 leaves reset later than u0), and the
// third must differ by its STEP.
func TestRepeatedInstancesKeepState(t *testing.T) {
	const acc = `
entity acc is
  generic (STEP : integer := 1);
  port (clk : in std_logic; reset : in std_logic; q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of acc is
  signal r : unsigned(7 downto 0) := (others => '0');
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        r <= (others => '0');
      else
        r <= r + STEP;
      end if;
    end if;
  end process;
  q <= std_logic_vector(r);
end architecture;
`
	const tb = `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal r0 : std_logic := '1';
  signal r1 : std_logic := '1';
  signal done : std_logic := '0';
  signal a, b, c : std_logic_vector(7 downto 0);
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  u0: entity work.acc generic map (STEP => 1) port map (clk => clk, reset => r0, q => a);
  u1: entity work.acc generic map (STEP => 1) port map (clk => clk, reset => r1, q => b);
  u2: entity work.acc generic map (STEP => 3) port map (clk => clk, reset => r0, q => c);
  stim: process
  begin
    wait for 3 ns;
    r0 <= '0';
    wait for 8 ns;
    r1 <= '0';
    wait for 20 ns;
    report "done";
    done <= '1';
    wait;
  end process;
end architecture;`
	d, err := Elaborate(parseElabUnits(t, acc, tb), "tb")
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	res := mustSimDesign(t, d)

	if u := d.Top.Children; len(u) != 3 {
		t.Fatalf("got %d instances, want 3", len(u))
	}
	if a, b := res.Final["tb.u0.r"], res.Final["tb.u1.r"]; a == b {
		t.Errorf("u0 and u1 ended in the same state %q; instance state leaked between instances", a)
	}
	if a, c := res.Final["tb.u0.r"], res.Final["tb.u2.r"]; a == c {
		t.Errorf("u0 and u2 ended in the same state %q despite different STEP", a)
	}
}

// BenchmarkElaborateCold is the elaboration cost a design-cache miss
// pays on top of compile.
func BenchmarkElaborateCold(b *testing.B) {
	units := parseElabUnits(b, elabCounterEnt, elabCounterTB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Elaborate(units, "tb"); err != nil {
			b.Fatal(err)
		}
	}
}
