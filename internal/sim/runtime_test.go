package sim

import (
	"strings"
	"testing"
)

// logLines is a process step that logs n nine-byte lines at time zero.
func logLines(r *Runtime, n int) func(*Process) {
	return func(p *Process) {
		for i := 0; i < n; i++ {
			r.Logf("line %03d\n", i)
		}
		p.Terminate()
	}
}

// TestExecuteCutsLogBeforeSummary: a log over its cap is cut at the cap,
// and the abort and fault lines are appended after the cut, so both
// stay visible.
func TestExecuteCutsLogBeforeSummary(t *testing.T) {
	r := NewRuntime(Options{MaxTime: 100, MaxOutput: 25}, "tb", "budget")
	spawn(r.Kernel, "chatty", logLines(&r, 5))
	var tick func()
	tick = func() { r.Kernel.Schedule(30, tick) }
	r.Kernel.Schedule(30, tick)
	out := r.Execute()
	want := "line 000\nline 001\nline 00" + "SIMULATOR: run aborted (timeout) at time 90\n"
	if out.Log != want || !out.TimedOut {
		t.Errorf("timed-out run: log %q timedOut=%v, want %q timedOut=true", out.Log, out.TimedOut, want)
	}

	r = NewRuntime(Options{MaxOutput: 25}, "tb", "budget")
	spawn(r.Kernel, "chatty", logLines(&r, 5))
	spawn(r.Kernel, "bad", func(p *Process) {
		panic(Faultf("bad %s", "value"))
	})
	out = r.Execute()
	want = "line 000\nline 001\nline 00" + "SIMULATOR: bad value\n"
	if out.Log != want || out.Fault != "bad value" || out.TimedOut {
		t.Errorf("faulted run: log %q fault %q timedOut=%v, want %q fault %q", out.Log, out.Fault, out.TimedOut, want, "bad value")
	}
}

// TestExecuteAbortLine: each limit stop appends exactly one abort line
// naming the stop reason and the time of the cut.
func TestExecuteAbortLine(t *testing.T) {
	for _, tc := range []struct {
		reason StopReason
		setup  func(r *Runtime)
	}{
		{StopTimeout, func(r *Runtime) {
			r.Kernel.MaxTime = 100
			var tick func()
			tick = func() { r.Kernel.Schedule(30, tick) }
			r.Kernel.Schedule(30, tick)
		}},
		{StopDeltas, func(r *Runtime) {
			r.Kernel.MaxDeltas = 50
			var spin func()
			spin = func() { nbaDo(r.Kernel, func() { r.Kernel.Active(spin) }) }
			r.Kernel.Active(spin)
		}},
		{StopEvents, func(r *Runtime) {
			r.Kernel.MaxEvents = 100
			var loop func()
			loop = func() { r.Kernel.Active(loop) }
			r.Kernel.Active(loop)
		}},
	} {
		r := NewRuntime(Options{}, "tb", "budget")
		r.Logf("before\n")
		tc.setup(&r)
		out := r.Execute()
		line := "SIMULATOR: run aborted (" + tc.reason.String() + ") at time "
		if !out.TimedOut || !strings.HasPrefix(out.Log, "before\n"+line) ||
			strings.Count(out.Log, "SIMULATOR:") != 1 || !strings.HasSuffix(out.Log, "\n") {
			t.Errorf("%v: log %q timedOut=%v, want one %q line after the log", tc.reason, out.Log, out.TimedOut, line)
		}
		if out.Fault != "" {
			t.Errorf("%v: fault %q on a limit stop", tc.reason, out.Fault)
		}
	}
}

// TestExecuteFaultLineOnceFirstWins: when two processes fault in one
// delta, the first fault is the outcome's, and its line is appended
// once; a fault whose text the log already holds adds no line.
func TestExecuteFaultLineOnceFirstWins(t *testing.T) {
	r := NewRuntime(Options{}, "tb", "budget")
	for _, msg := range []string{"first", "second"} {
		spawn(r.Kernel, msg, func(p *Process) {
			panic(Fault{Msg: msg})
		})
	}
	out := r.Execute()
	if out.Fault != "first" || out.Log != "SIMULATOR: first\n" {
		t.Errorf("fault %q log %q, want fault %q and one fault line", out.Fault, out.Log, "first")
	}

	r = NewRuntime(Options{}, "tb", "budget")
	r.Kernel.Active(func() {
		defer r.Recover()
		r.Logf("FATAL: boom\n")
		panic(Faultf("boom"))
	})
	out = r.Execute()
	if out.Fault != "boom" || out.Log != "FATAL: boom\n" {
		t.Errorf("fault %q log %q, want fault %q with no second line", out.Fault, out.Log, "boom")
	}
}

// TestExecuteProcessPanicSurfaces: a panic inside a process step that is
// not a Fault (an interpreter bug on odd RTL) is recorded by the kernel
// as a simulation fatal in the process, and the outcome reports it as
// the fault with its SIMULATOR line.
func TestExecuteProcessPanicSurfaces(t *testing.T) {
	r := NewRuntime(Options{}, "tb", "budget")
	spawn(r.Kernel, "tb.bad", func(p *Process) {
		var s []int
		_ = s[3]
	})
	out := r.Execute()
	const prefix = "simulation fatal in process tb.bad: "
	if !strings.HasPrefix(out.Fault, prefix) || !strings.Contains(out.Fault, "index out of range") {
		t.Fatalf("fault = %q, want %q plus the panic", out.Fault, prefix)
	}
	if out.Log != "SIMULATOR: "+out.Fault+"\n" {
		t.Errorf("log = %q, want the fault line", out.Log)
	}
}

// TestTickBudget: the statement budget raises the HDL's own fault text.
func TestTickBudget(t *testing.T) {
	r := NewRuntime(Options{}, "tb", "budget spent")
	r.steps = stepBudget
	spawn(r.Kernel, "loop", func(p *Process) {
		r.Tick()
	})
	if out := r.Execute(); out.Fault != "budget spent" {
		t.Errorf("fault = %q, want the budget fault", out.Fault)
	}
}
