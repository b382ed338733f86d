package vhdlsim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/vhdl"
)

// wsCase is one run the workspace tests repeat on fresh and recycled
// storage.
type wsCase struct {
	name string
	run  func(w *workspace) (*Result, error)
}

const wsCounter = `
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
    wait for 400 ns;
    assert count /= x"0000" report "counter never advanced" severity error;
    done <= '1';
    wait;
  end process;
end architecture;`

// wsInvShell is a judge shell around an inverter: declarations and the
// DUT instantiation, driven by a stimulus.
const wsInvShell = `
entity inv is
  port (a : in std_logic; y : out std_logic);
end entity;
architecture rtl of inv is
begin
  y <= not a;
end architecture;
entity tb is end entity;
architecture sim of tb is
  signal a, y : std_logic;
  signal done : std_logic := '0';
begin
  dut: entity work.inv port map (a => a, y => y);
end architecture;`

// wsDffShell is a sequential judge shell with its textual clock.
const wsDffShell = `
entity dff is
  port (clk : in std_logic; d : in std_logic; q : out std_logic);
end entity;
architecture rtl of dff is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      q <= d;
    end if;
  end process;
end architecture;
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal d, q : std_logic;
  signal done : std_logic := '0';
begin
  clk <= not clk after 5 ns when done = '0' else '0';
  dut: entity work.dff port map (clk => clk, d => d, q => q);
end architecture;`

// workspaceCases covers each way a run ends: a pass, a judge mismatch,
// a sequential judge pass, a runtime fault, a timeout, a severity
// failure with delayed updates still pending, a CaptureFinal run, a
// delta-limit cut, a run of a caller's Design (as SimulateDesign runs
// it), an elaboration error and a stimulus naming a signal the shell
// lacks. texts are the parsed sources.
func workspaceCases(t *testing.T) (cases []wsCase, texts []string) {
	parse := func(src string) []*vhdl.DesignFile {
		texts = append(texts, src)
		return parseElabUnits(t, src)
	}
	counter := parse(wsCounter)
	inv := parse(wsInvShell)
	dff := parse(wsDffShell)
	fault := parse(`
entity tb is end entity;
architecture sim of tb is
  signal y : std_logic;
begin
  process
  begin
    wait for 3 ns;
    y <= ghost;
    wait;
  end process;
end architecture;`)
	spin := parse(`
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
begin
  clk <= not clk after 5 ns;
end architecture;`)
	failure := parse(`
entity tb is end entity;
architecture sim of tb is
  signal a : std_logic := '0';
  signal b : std_logic;
begin
  b <= a after 10 ns;
  process
  begin
    a <= '1';
    wait for 15 ns;
    a <= '0';
    wait for 2 ns;
    assert b = '0' report "stop with b's update in flight" severity failure;
    wait;
  end process;
end architecture;`)
	osc := parse(`
entity tb is end entity;
architecture sim of tb is
  signal a : std_logic := '0';
begin
  process(a)
  begin
    a <= not a;
  end process;
end architecture;`)
	orphan := parse(`
entity tb is end entity;
architecture sim of tb is
begin
  g: entity work.ghost;
end architecture;`)
	simulate := func(units []*vhdl.DesignFile, opts Options) func(*workspace) (*Result, error) {
		return func(w *workspace) (*Result, error) { return w.simulate(units, "tb", opts) }
	}
	judge := func(units []*vhdl.DesignFile, st *sim.Stimulus) func(*workspace) (*Result, error) {
		return func(w *workspace) (*Result, error) {
			return w.simulateStimulus(units, "tb", st, Options{MaxTime: 100000})
		}
	}
	return []wsCase{
		{"pass", simulate(counter, Options{MaxTime: 100000})},
		{"mismatch", judge(inv, sim.NewStimulus([]string{"a"}, []string{"y"}, false, 3, []uint64{0, 1, 0}, []uint64{1, 1, 1}))},
		{"sequential", judge(dff, sim.NewStimulus([]string{"d"}, []string{"q"}, true, 4, []uint64{1, 0, 1, 1}, []uint64{1, 0, 1, 1}))},
		{"fault", simulate(fault, Options{MaxTime: 100000})},
		{"timeout", simulate(spin, Options{MaxTime: 40})},
		{"failure", simulate(failure, Options{MaxTime: 100000})},
		{"final", simulate(counter, Options{MaxTime: 100000, CaptureFinal: true})},
		{"oscillation", simulate(osc, Options{MaxTime: 100000})},
		{"caller-design", func(w *workspace) (*Result, error) {
			d, err := Elaborate(counter, "tb")
			if err != nil {
				return nil, err
			}
			return w.s.run(d, Options{MaxTime: 100000}, nil), nil
		}},
		{"elab-error", simulate(orphan, Options{})},
		{"no-signal", judge(inv, sim.NewStimulus([]string{"a"}, []string{"z"}, false, 1, []uint64{0}, []uint64{1}))},
	}, texts
}

// TestWorkspaceRecycledRunsMatchFresh interleaves every case on one
// recycled workspace, in a different order each round, and holds each
// run to the same case on a workspace no run has used: log, final
// values, events, end time, flags and error text.
func TestWorkspaceRecycledRunsMatchFresh(t *testing.T) {
	cases, _ := workspaceCases(t)
	checked := map[string]bool{}
	w := workspaces.New().(*workspace)
	for round := 0; round < 3; round++ {
		for i := range cases {
			c := cases[(i*(round+2)+round)%len(cases)]
			got, gotErr := c.run(w)
			w.reset()
			want, wantErr := c.run(workspaces.New().(*workspace))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: recycled run differs from a fresh one\n got  %+v (%v)\n want %+v (%v)",
					round, c.name, got, gotErr, want, wantErr)
			}
			checked[c.name] = true
		}
	}
	if len(checked) != len(cases) {
		t.Fatalf("ran %d of %d cases", len(checked), len(cases))
	}
	// The cases end the ways they are named for.
	for _, c := range cases {
		res, err := c.run(workspaces.New().(*workspace))
		var ok bool
		switch c.name {
		case "pass", "caller-design":
			ok = err == nil && !res.TimedOut && res.AssertErrors == 0 && res.Fault == ""
		case "mismatch":
			ok = err == nil && res.AssertErrors == 1
		case "sequential":
			ok = err == nil && strings.Contains(res.Log, sim.PassMarker)
		case "fault":
			ok = err == nil && res.Fault != "" && res.EndTime == 3
		case "timeout", "oscillation":
			ok = err == nil && res.TimedOut
		case "failure":
			ok = err == nil && res.Failed
		case "final":
			ok = err == nil && res.Final["tb.uut.cnt"] != ""
		case "elab-error", "no-signal":
			ok = err != nil && res == nil
		}
		if !ok {
			t.Errorf("%s: unexpected outcome (err %v): %+v", c.name, err, res)
		}
	}
}

// TestWorkspacesConcurrent runs every case from several goroutines
// through the pool, which shares workspaces between them; each run
// must match a run on fresh storage. CI runs it under the race
// detector.
func TestWorkspacesConcurrent(t *testing.T) {
	cases, _ := workspaceCases(t)
	type outcome struct {
		res *Result
		err error
	}
	want := make([]outcome, len(cases))
	for i, c := range cases {
		want[i].res, want[i].err = c.run(workspaces.New().(*workspace))
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*rounds*len(cases))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					k := (i + g + r) % len(cases)
					w := workspaces.Get().(*workspace)
					res, err := cases[k].run(w)
					w.release()
					if fmt.Sprint(err) != fmt.Sprint(want[k].err) || !reflect.DeepEqual(res, want[k].res) {
						errs <- fmt.Sprintf("goroutine %d round %d: %s differs from a fresh run", g, r, cases[k].name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestWorkspaceResetKeepsNoRun: after each case, the reset workspace
// holds no AST node, no string into a parsed source and no closure of
// the run, so a pooled workspace keeps no parse alive.
func TestWorkspaceResetKeepsNoRun(t *testing.T) {
	cases, texts := workspaceCases(t)
	w := workspaces.New().(*workspace)
	for _, c := range cases {
		c.run(w)
		w.reset()
		for _, r := range simtest.Retained(w, []string{"repro/internal/vhdl"}, texts, ".updFull", ".updPart") {
			t.Errorf("after %s: reset workspace keeps %s", c.name, r)
		}
	}
}

// TestWorkspaceRecycledRunAllocs is the workspace's allocation guard: a
// counter run on a recycled workspace allocates well under the same
// run on a workspace no run has used, because the arenas, maps, slices
// and kernel queues of the first run serve the second. It also makes at
// most recycledRunAllocs allocations outright, so the per-run setup of
// processes and wait sites cannot grow back unnoticed.
func TestWorkspaceRecycledRunAllocs(t *testing.T) {
	const recycledRunAllocs = 40
	units := parseElabUnits(t, wsCounter)
	run := func(w *workspace) {
		res, err := w.simulate(units, "tb", Options{MaxTime: 100000})
		if err != nil || res.TimedOut || res.AssertErrors != 0 {
			t.Fatalf("counter run: %v", err)
		}
		w.reset()
	}
	first := testing.AllocsPerRun(5, func() { run(workspaces.New().(*workspace)) })
	w := workspaces.New().(*workspace)
	second := testing.AllocsPerRun(5, func() { run(w) })
	firstB := allocBytes(func() { run(workspaces.New().(*workspace)) })
	secondB := allocBytes(func() { run(w) })
	t.Logf("first run %v allocs, %d B; recycled run %v allocs, %d B", first, firstB, second, secondB)
	if second > 0.8*first {
		t.Errorf("recycled run: %v allocs, want at most 80%% of the first run's %v", second, first)
	}
	// The race detector drops sync.Pool entries at random, so the run's
	// report lines sometimes get a new fmt printer: the least of a few
	// measurements is the run's own count.
	least := second
	for i := 0; i < 8 && least > recycledRunAllocs; i++ {
		least = min(least, testing.AllocsPerRun(5, func() { run(w) }))
	}
	if least > recycledRunAllocs {
		t.Errorf("recycled run: %v allocs, want at most %d", least, recycledRunAllocs)
	}
	if 2*secondB > firstB {
		t.Errorf("recycled run: %d B, want at most half of the first run's %d B", secondB, firstB)
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged
// over ten calls.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 10
}
