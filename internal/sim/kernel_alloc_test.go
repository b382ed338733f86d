package sim

import "testing"

// TestKernelNoPerDeltaAllocs pins the hot-loop guarantee documented on
// Kernel: once the region buffers have grown, a steady-state run of
// active->NBA->active delta cycles performs no per-delta allocations.
func TestKernelNoPerDeltaAllocs(t *testing.T) {
	k := NewKernel()
	const deltas = 1000
	n := 0
	var act func()
	var reactivate func(*NBARecord)
	act = func() {
		n++
		if n < deltas {
			k.NBAPut().Apply = reactivate
		}
	}
	reactivate = func(*NBARecord) { k.Active(act) }

	// Warm-up run grows the active/nba backing arrays to steady state.
	k.Active(act)
	if r := k.Run(); r != StopIdle {
		t.Fatalf("warm-up run stopped with %v", r)
	}
	if n != deltas {
		t.Fatalf("warm-up ran %d deltas, want %d", n, deltas)
	}

	avg := testing.AllocsPerRun(5, func() {
		n = 0
		k.Active(act)
		if r := k.Run(); r != StopIdle {
			t.Fatalf("run stopped with %v", r)
		}
	})
	// Each measured run is `deltas` delta cycles; any per-delta
	// allocation would show up as >= deltas allocs per run.
	if avg > 1 {
		t.Errorf("allocs per %d-delta run = %v, want <= 1 (per-delta allocation regression)", deltas, avg)
	}
}

// TestProcessStepZeroAllocs pins the continuation-kernel guarantee: a
// steady-state process step — dispatch, Delay reschedule, future-heap
// push/pop, time advance — allocates nothing. CI's alloc guard runs
// this (and its vsim counterpart) to catch regressions on the
// per-step dispatch path.
func TestProcessStepZeroAllocs(t *testing.T) {
	k := NewKernel()
	const steps = 1000
	n := 0
	proc := spawn(k, "clock", func(p *Process) {
		n++
		if n >= steps {
			return // suspend with nothing scheduled: the run goes idle
		}
		p.Delay(1)
	})
	// Warm-up run grows the kernel buffers to steady state.
	if r := k.Run(); r != StopIdle {
		t.Fatalf("warm-up run stopped with %v", r)
	}
	if n != steps {
		t.Fatalf("warm-up ran %d steps, want %d", n, steps)
	}
	avg := testing.AllocsPerRun(5, func() {
		n = 0
		proc.Activate()
		if r := k.Run(); r != StopIdle {
			t.Fatalf("run stopped with %v", r)
		}
	})
	if avg >= 1 {
		t.Errorf("allocs per %d-step run = %v, want < 1 (per-step allocation regression)", steps, avg)
	}
}
