package vsim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/verilog"
)

// wsCase is one run the workspace tests repeat on fresh and recycled
// storage.
type wsCase struct {
	name string
	run  func(w *workspace) (*Result, error)
}

// notShell is a judge shell around an inverter: declarations and the
// DUT instantiation, driven by a stimulus.
const notShell = `
module inv(input a, output y);
  assign y = ~a;
endmodule
module tb;
  reg a;
  wire y;
  inv dut(.a(a), .y(y));
endmodule`

// dffShell is a sequential judge shell with its textual clock.
const dffShell = `
module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
module tb;
  reg clk, d;
  wire q;
  dff dut(.clk(clk), .d(d), .q(q));
  always #5 clk = ~clk;
endmodule`

// workspaceCases covers each way a run ends: a pass, a judge mismatch,
// a sequential judge pass, a runtime fault, a timeout, a $dumpvars VCD
// run, a CaptureFinal run, a delta-limit cut, a run of a caller's
// Design (as SimulateDesign runs it), an elaboration error and a
// stimulus naming a signal the shell lacks. texts are the parsed
// sources.
func workspaceCases(t *testing.T) (cases []wsCase, texts []string) {
	parse := func(src string) map[string]*verilog.Module {
		texts = append(texts, src)
		return mustParse(t, src)
	}
	counter := parse(counterSrc)
	inv := parse(notShell)
	dff := parse(dffShell)
	fault := parse(`
module tb;
  reg [7:0] m [0:3];
  initial begin
    #3 $display("before %0d", $random);
    $readmemh("m.hex", m);
  end
endmodule`)
	spin := parse(`
module tb;
  reg clk;
  initial clk = 0;
  always #1 clk = ~clk;
endmodule`)
	vcd := parse(`
module tb;
  reg clk;
  reg [3:0] n;
  initial begin
    clk = 0; n = 0;
    $dumpfile("w.vcd");
    $dumpvars(0, tb);
    repeat (6) #1 begin clk = ~clk; n <= n + 1; end
    $finish; // with the last n update pending
  end
endmodule`)
	osc := parse(`
module tb;
  reg a;
  initial #1 a = 0;
  always @(a) a <= ~a;
endmodule`)
	dynamic := parse(`
module tb;
  reg [7:0] v;
  integer i;
  initial begin
    v = 0;
    for (i = 0; i < 8; i = i + 2) v[i] = 1'b1;
    $display("v=%b", v);
    $finish;
  end
endmodule`)
	orphan := parse(`
module tb;
  ghost g();
endmodule`)
	simulate := func(mods map[string]*verilog.Module, opts Options) func(*workspace) (*Result, error) {
		return func(w *workspace) (*Result, error) { return w.simulate(mods, "tb", opts) }
	}
	judge := func(mods map[string]*verilog.Module, st *sim.Stimulus) func(*workspace) (*Result, error) {
		return func(w *workspace) (*Result, error) { return w.simulateStimulus(mods, "tb", st, Options{}) }
	}
	return []wsCase{
		{"pass", simulate(counter, Options{})},
		{"mismatch", judge(inv, sim.NewStimulus([]string{"a"}, []string{"y"}, false, 3, []uint64{0, 1, 0}, []uint64{1, 1, 1}))},
		{"sequential", judge(dff, sim.NewStimulus([]string{"d"}, []string{"q"}, true, 4, []uint64{1, 0, 1, 1}, []uint64{1, 0, 1, 1}))},
		{"fault", simulate(fault, Options{})},
		{"timeout", simulate(spin, Options{MaxTime: 40})},
		{"vcd", simulate(vcd, Options{})},
		{"final", simulate(counter, Options{CaptureFinal: true})},
		{"oscillation", simulate(osc, Options{})},
		{"caller-design", func(w *workspace) (*Result, error) {
			d, err := Elaborate(dynamic, "tb")
			if err != nil {
				return nil, err
			}
			return w.s.run(d, Options{}, nil), nil
		}},
		{"elab-error", simulate(orphan, Options{})},
		{"no-signal", judge(inv, sim.NewStimulus([]string{"a"}, []string{"z"}, false, 1, []uint64{0}, []uint64{1}))},
	}, texts
}

// sameRun fails t unless two runs of one case agree byte for byte:
// log, VCD, final values, events, end time, flags and error text.
func sameRun(t *testing.T, label string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recycled run differs from a fresh one\n got  %+v\n want %+v", label, got, want)
	}
}

// TestWorkspaceRecycledRunsMatchFresh interleaves every case on one
// recycled workspace, in a different order each round, and holds each
// run to the same case on a workspace no run has used.
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
			sameRun(t, fmt.Sprintf("round %d %s", round, c.name), got, gotErr, want, wantErr)
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
		case "pass":
			ok = err == nil && res.Finished && res.Fault == ""
		case "mismatch":
			ok = err == nil && res.Finished && strings.Contains(res.Log, "1 test case(s) failed.")
		case "sequential":
			ok = err == nil && res.Finished && strings.Contains(res.Log, sim.PassMarker)
		case "fault":
			ok = err == nil && res.Fault != "" && res.EndTime == 3
		case "timeout", "oscillation":
			ok = err == nil && res.TimedOut
		case "caller-design":
			ok = err == nil && strings.Contains(res.Log, "v=01010101")
		case "vcd":
			ok = err == nil && strings.Contains(res.VCD, "$enddefinitions")
		case "final":
			ok = err == nil && res.Final["tb.dut.count"] != ""
		case "elab-error", "no-signal":
			ok = err != nil && res == nil
		}
		if !ok {
			t.Errorf("%s: unexpected outcome (err %v): %+v", c.name, err, res)
		}
	}
}

// TestWorkspacesConcurrent runs every case from several goroutines
// through the pooled entry points, which share workspaces between
// them; each run must match a run on fresh storage. CI runs it under
// the race detector.
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
					c := cases[(i+g+r)%len(cases)]
					w := workspaces.Get().(*workspace)
					res, err := c.run(w)
					w.release()
					k := (i + g + r) % len(cases)
					if fmt.Sprint(err) != fmt.Sprint(want[k].err) || !reflect.DeepEqual(res, want[k].res) {
						errs <- fmt.Sprintf("goroutine %d round %d: %s differs from a fresh run", g, r, c.name)
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
		for _, r := range simtest.Retained(w, []string{"repro/internal/verilog"}, texts, ".nbaVec", ".nbaMem") {
			t.Errorf("after %s: reset workspace keeps %s", c.name, r)
		}
	}
}

// TestWorkspaceRecycledRunAllocs is the workspace's allocation guard: a
// counter run on a recycled workspace allocates well under the same
// run on a workspace no run has used, because the arenas, maps, slices
// and kernel queues of the first run serve the second.
func TestWorkspaceRecycledRunAllocs(t *testing.T) {
	mods := mustParse(t, counterSrc)
	run := func(w *workspace) {
		if res, err := w.simulate(mods, "tb", Options{}); err != nil || !res.Finished {
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
