package vhdlsim

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/vhdl"
)

func TestVHDLWhileLoopAndExit(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal n : integer := 0;
begin
  process
    variable i : integer := 0;
  begin
    while true loop
      i := i + 1;
      exit when i >= 7;
    end loop;
    n <= i;
    wait for 1 ns;
    assert n = 7 report "TC1 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 || !strings.Contains(res.Log, "All tests passed successfully!") {
		t.Errorf("errors=%d log:\n%s", res.AssertErrors, res.Log)
	}
}

func TestVHDLDowntoForLoop(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal v : std_logic_vector(3 downto 0) := "0000";
begin
  process
  begin
    for i in 3 downto 0 loop
      if i >= 2 then
        v(i) <= '1';
      end if;
    end loop;
    wait for 1 ns;
    assert v = "1100" report "TC1 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLSignalVsVariableSemantics(t *testing.T) {
	// Signals update after a delta; variables immediately.
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal s : integer := 1;
  signal got_sig, got_var : integer := 0;
begin
  process
    variable v : integer := 1;
  begin
    s <= 5;
    v := 5;
    got_sig <= s;  -- still 1: signal not yet updated
    got_var <= v;  -- already 5
    wait for 1 ns;
    assert got_sig = 1 report "TC1 Failed: signal updated too early" severity error;
    assert got_var = 5 report "TC2 Failed: variable not immediate" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLAfterDelay(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal a : std_logic := '0';
  signal b : std_logic;
begin
  b <= a after 10 ns;
  process
  begin
    a <= '1';
    wait for 5 ns;
    assert b /= '1' report "TC1 Failed: delayed assign arrived early" severity error;
    wait for 10 ns;
    assert b = '1' report "TC2 Failed: delayed assign missing" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLEventAttribute(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal q : std_logic := '0';
  signal d : std_logic := '1';
  signal done : std_logic := '0';
begin
  clk <= not clk after 5 ns when done = '0' else '0';
  process(clk)
  begin
    if clk'event and clk = '1' then
      q <= d;
    end if;
  end process;
  process
  begin
    wait until rising_edge(clk);
    wait for 1 ns;
    assert q = '1' report "TC1 Failed: clk'event latch missed" severity error;
    report "All tests passed successfully!";
    done <= '1';
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLGenericDefault(t *testing.T) {
	res := runVHDL(t, "tb", `
entity wide is
  generic (W : integer := 3);
  port (y : out std_logic_vector(W-1 downto 0));
end entity;
architecture rtl of wide is
begin
  y <= (others => '1');
end architecture;
`, `
entity tb is end entity;
architecture sim of tb is
  signal y : std_logic_vector(2 downto 0);
begin
  uut: entity work.wide port map (y => y);
  process
  begin
    wait for 1 ns;
    assert y = "111" report "TC1 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLTwoLevelHierarchy(t *testing.T) {
	res := runVHDL(t, "tb", `
entity inv is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of inv is begin y <= not a; end architecture;
entity double_inv is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of double_inv is
  signal mid : std_logic;
begin
  u0: entity work.inv port map (a => a, y => mid);
  u1: entity work.inv port map (a => mid, y => y);
end architecture;
`, `
entity tb is end entity;
architecture sim of tb is
  signal a, y : std_logic := '0';
begin
  uut: entity work.double_inv port map (a => a, y => y);
  process
  begin
    a <= '1';
    wait for 1 ns;
    assert y = '1' report "TC1 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLWaitUntilCondition(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal cnt : integer := 0;
  signal clk : std_logic := '0';
  signal done : std_logic := '0';
begin
  clk <= not clk after 5 ns when done = '0' else '0';
  process(clk)
  begin
    if rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  process
  begin
    wait until cnt = 3;
    assert cnt = 3 report "TC1 Failed" severity error;
    report "All tests passed successfully!";
    done <= '1';
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 || !strings.Contains(res.Log, "All tests passed successfully!") {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLIntegerSignals(t *testing.T) {
	res := runVHDL(t, "tb", `
entity tb is end entity;
architecture sim of tb is
  signal a : integer := 10;
  signal b : integer := 3;
  signal q, r : integer := 0;
begin
  process
  begin
    q <= a / b;
    r <= a mod b;
    wait for 1 ns;
    assert q = 3 report "TC1 Failed" severity error;
    assert r = 1 report "TC2 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 {
		t.Errorf("log:\n%s", res.Log)
	}
}

func TestVHDLUnknownEntityError(t *testing.T) {
	src := `
entity tb is end entity;
architecture sim of tb is
  signal y : std_logic;
begin
  u0: entity work.ghost port map (y => y);
end architecture;`
	df, diags := parseOne(t, src)
	if diags.HasErrors() {
		return // checker already rejects; fine
	}
	if _, err := Simulate(df, "tb", Options{}); err == nil {
		t.Error("expected elaboration error")
	}
}

func parseOne(t *testing.T, src string) ([]*vhdl.DesignFile, diag.List) {
	t.Helper()
	df, diags := vhdl.Parse("t.vhd", src)
	return []*vhdl.DesignFile{df}, diags
}

func TestVHDLSelectedAssignment(t *testing.T) {
	res := runVHDL(t, "tb", `
entity dec2 is
  port (sel : in std_logic_vector(1 downto 0); y : out std_logic_vector(3 downto 0));
end entity;
architecture rtl of dec2 is
begin
  with sel select y <=
    "0001" when "00",
    "0010" when "01",
    "0100" when "10",
    "1000" when others;
end architecture;
`, `
entity tb is end entity;
architecture sim of tb is
  signal sel : std_logic_vector(1 downto 0) := "00";
  signal y : std_logic_vector(3 downto 0);
begin
  uut: entity work.dec2 port map (sel => sel, y => y);
  process
  begin
    wait for 1 ns;
    assert y = "0001" report "TC1 Failed" severity error;
    sel <= "10";
    wait for 1 ns;
    assert y = "0100" report "TC2 Failed" severity error;
    sel <= "11";
    wait for 1 ns;
    assert y = "1000" report "TC3 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;`)
	if res.AssertErrors != 0 || !strings.Contains(res.Log, "All tests passed successfully!") {
		t.Errorf("errors=%d log:\n%s", res.AssertErrors, res.Log)
	}
}

// TestClockedProcessXWindow drives X through a clocked process: the
// accumulator's data input is released to a known value, forced to 'X'
// mid-run, then cleared and released again. A run stopped inside the
// X window must leave the accumulator all-X; the full run must recover
// to the fully known count of the second phase.
func TestClockedProcessXWindow(t *testing.T) {
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
	f, diags := vhdl.Parse("tb.vhd", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	run := func(maxTime sim.Time) *Result {
		res, err := Simulate([]*vhdl.DesignFile{f}, "tb", Options{MaxTime: maxTime, CaptureFinal: true})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if res.Fault != "" {
			t.Fatalf("fault: %s", res.Fault)
		}
		return res
	}
	if got := run(25).Final["tb.dut.r"]; got != "xxxxxxxx" {
		t.Errorf("accumulator inside the X window = %q, want xxxxxxxx", got)
	}
	full := run(100000)
	if got := full.Final["tb.dut.r"]; got != "00001010" {
		t.Errorf("accumulator after recovery = %q, want 00001010", got)
	}
	if full.Log != "Note: fallback done\n" || full.TimedOut || full.AssertErrors != 0 {
		t.Errorf("full run: timedOut=%v asserts=%d log %q", full.TimedOut, full.AssertErrors, full.Log)
	}
}

// TestVHDLReportSignedInteger: a report renders an integer as a signed
// decimal, and a vector as an unsigned one.
func TestVHDLReportSignedInteger(t *testing.T) {
	res := runVHDL(t, "tb", `
library ieee;
use ieee.std_logic_1164.all;
entity tb is end entity;
architecture sim of tb is
  signal n : integer := -3;
begin
  process
    variable s : integer := -17;
    variable p : integer := 42;
    variable v : std_logic_vector(3 downto 0) := "1111";
  begin
    report "s=" & s;
    report "n=" & n;
    report "p=" & p;
    report "v=" & v;
    wait;
  end process;
end architecture;`)
	want := "Note: s=-17\nNote: n=-3\nNote: p=42\nNote: v=15\n"
	if res.Log != want {
		t.Errorf("log = %q, want %q", res.Log, want)
	}
}
