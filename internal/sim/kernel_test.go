package sim

import (
	"runtime"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(10, func() { order = append(order, 2) })
	k.Schedule(5, func() { order = append(order, 1) })
	k.Schedule(10, func() { order = append(order, 3) }) // FIFO at same time
	if r := k.Run(); r != StopIdle {
		t.Fatalf("stop = %v", r)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 10 {
		t.Errorf("now = %d", k.Now())
	}
}

// nbaDo queues fn into the current NBA region as a record whose Apply
// hook calls it.
func nbaDo(k *Kernel, fn func()) {
	k.NBAPut().Apply = func(*NBARecord) { fn() }
}

func TestNBARunsAfterActive(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Active(func() {
		nbaDo(k, func() { order = append(order, "nba") })
		k.Active(func() { order = append(order, "active2") })
		order = append(order, "active1")
	})
	k.Run()
	want := []string{"active1", "active2", "nba"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessDelay(t *testing.T) {
	k := NewKernel()
	var times []Time
	pc := 0
	k.NewProcess("p", func(p *Process) {
		times = append(times, k.Now())
		switch pc {
		case 0:
			pc = 1
			p.Delay(7)
		case 1:
			pc = 2
			p.Delay(3)
		default:
			p.Terminate()
		}
	})
	if r := k.Run(); r != StopIdle {
		t.Fatalf("stop = %v", r)
	}
	if len(times) != 3 || times[0] != 0 || times[1] != 7 || times[2] != 10 {
		t.Errorf("times = %v", times)
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	k := NewKernel()
	var log []string
	apc, bpc := 0, 0
	k.NewProcess("a", func(p *Process) {
		switch apc {
		case 0:
			log = append(log, "a0")
			apc = 1
			p.Delay(5)
		case 1:
			log = append(log, "a5")
			apc = 2
			p.Delay(10)
		default:
			log = append(log, "a15")
			p.Terminate()
		}
	})
	k.NewProcess("b", func(p *Process) {
		switch bpc {
		case 0:
			log = append(log, "b0")
			bpc = 1
			p.Delay(10)
		default:
			log = append(log, "b10")
			p.Terminate()
		}
	})
	k.Run()
	want := []string{"a0", "b0", "a5", "b10", "a15"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q want %q", i, log[i], want[i])
		}
	}
}

func TestFinishStopsRun(t *testing.T) {
	k := NewKernel()
	ran := false
	pc := 0
	k.NewProcess("p", func(p *Process) {
		if pc == 0 {
			pc = 1
			p.Delay(5)
			return
		}
		k.Finish()
		panic(TerminateProcess{})
	})
	k.Schedule(100, func() { ran = true })
	if r := k.Run(); r != StopFinish {
		t.Fatalf("stop = %v", r)
	}
	if ran {
		t.Error("event after finish should not run")
	}
	if k.Now() != 5 {
		t.Errorf("now = %d", k.Now())
	}
}

func TestActivationWait(t *testing.T) {
	k := NewKernel()
	var got Time
	var waiter *Process
	waited := false
	waiter = k.NewProcess("waiter", func(p *Process) {
		if !waited {
			// First activation: suspend until someone calls Activate.
			waited = true
			return
		}
		got = k.Now()
		p.Terminate()
	})
	kicked := false
	k.NewProcess("kicker", func(p *Process) {
		if !kicked {
			kicked = true
			p.Delay(42)
			return
		}
		waiter.Activate()
		p.Terminate()
	})
	k.Run()
	if got != 42 {
		t.Errorf("woken at %d, want 42", got)
	}
}

func TestDeltaLimit(t *testing.T) {
	k := NewKernel()
	k.MaxDeltas = 50
	var spin func()
	spin = func() {
		nbaDo(k, func() { k.Active(spin) })
	}
	k.Active(spin)
	if r := k.Run(); r != StopDeltas {
		t.Errorf("stop = %v, want delta-limit", r)
	}
}

func TestTimeLimit(t *testing.T) {
	k := NewKernel()
	k.MaxTime = 100
	var tick func()
	tick = func() { k.Schedule(30, tick) }
	k.Schedule(30, tick)
	if r := k.Run(); r != StopTimeout {
		t.Errorf("stop = %v, want timeout", r)
	}
	if k.Now() > 100 {
		t.Errorf("now = %d advanced past limit", k.Now())
	}
}

func TestEventLimit(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 100
	var loop func()
	loop = func() { k.Active(loop) }
	k.Active(loop)
	if r := k.Run(); r != StopEvents {
		t.Errorf("stop = %v, want event-limit", r)
	}
}

func TestFinishAbandonsInfiniteProcess(t *testing.T) {
	// A free-running clock process never terminates on its own; Finish
	// must stop the run, and dropping the kernel must leave nothing
	// behind (no goroutine exists per process to leak).
	before := runtime.NumGoroutine()
	k := NewKernel()
	iterations := 0
	k.NewProcess("clock", func(p *Process) {
		iterations++
		if iterations > 3 {
			k.Finish()
			return
		}
		p.Delay(5)
	})
	if r := k.Run(); r != StopFinish {
		t.Fatalf("stop = %v", r)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d", before, n)
	}
}

func TestProcessPanicBecomesFault(t *testing.T) {
	k := NewKernel()
	k.NewProcess("bad", func(p *Process) {
		var s []int
		_ = s[3] // index out of range
	})
	r := k.Run()
	if r != StopFinish {
		t.Fatalf("stop = %v", r)
	}
	if k.Fault() == "" {
		t.Error("fault not recorded")
	}
}

func TestTerminateMakesActivationsNoOps(t *testing.T) {
	k := NewKernel()
	runs := 0
	p := k.NewProcess("p", func(p *Process) {
		runs++
		p.Terminate()
	})
	p.Activate() // queued before the process runs and terminates
	k.Run()
	if runs != 1 {
		t.Errorf("step ran %d times, want 1 (post-Terminate activation must be a no-op)", runs)
	}
	if !p.Dead() {
		t.Error("process not dead after Terminate")
	}
}

func TestZeroDelayYieldsFIFO(t *testing.T) {
	k := NewKernel()
	var order []string
	delayed := false
	k.NewProcess("a", func(p *Process) {
		if !delayed {
			order = append(order, "a1")
			delayed = true
			p.Delay(0)
			return
		}
		order = append(order, "a2")
		p.Terminate()
	})
	k.NewProcess("b", func(p *Process) {
		order = append(order, "b1")
		p.Terminate()
	})
	k.Run()
	// a runs, delays 0 (goes to back of active queue), b runs, a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestZeroDelayStaysInCurrentDelta(t *testing.T) {
	// Delay(0) reschedules in the *current* active region: the process
	// resumes at the same simulated time, before NBA updates apply and
	// before time advances.
	k := NewKernel()
	var order []string
	yielded := false
	k.NewProcess("p", func(p *Process) {
		if !yielded {
			yielded = true
			nbaDo(k, func() { order = append(order, "nba") })
			p.Delay(0)
			return
		}
		order = append(order, "resumed")
		if k.Now() != 0 {
			t.Errorf("zero delay advanced time to %d", k.Now())
		}
		p.Terminate()
	})
	k.Schedule(1, func() { order = append(order, "t1") })
	k.Run()
	want := []string{"resumed", "nba", "t1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}
