package sim

import "testing"

// TestEngineLockstepTimeAdvance pins the time rule of the run loop:
// the kernel advances to the earliest scheduled time, and events
// scheduled for one time run in schedule order.
func TestEngineLockstepTimeAdvance(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Schedule(7, func() { got = append(got, "b@7") })
	k.Schedule(5, func() { got = append(got, "a@5") })
	k.Schedule(7, func() { got = append(got, "c@7") })
	if r := k.Run(); r != StopIdle {
		t.Fatalf("stop = %v", r)
	}
	if len(got) != 3 || got[0] != "a@5" || got[1] != "b@7" || got[2] != "c@7" {
		t.Errorf("events = %v, want [a@5 b@7 c@7]", got)
	}
	if k.Now() != 7 {
		t.Errorf("kernel at %d, want 7", k.Now())
	}
}

// TestEngineFinishCutsAtDeltaBoundary pins the stop rule: a Finish lets
// the current delta's active region complete, then stops the run before
// NBA application and before any later event.
func TestEngineFinishCutsAtDeltaBoundary(t *testing.T) {
	k := NewKernel()
	var log []string
	k.Active(func() {
		log = append(log, "finishes")
		k.Finish()
	})
	k.Active(func() { log = append(log, "same-delta-a") })
	k.Active(func() { log = append(log, "same-delta-b") })
	nbaDo(k, func() { log = append(log, "nba") })
	k.Schedule(3, func() { log = append(log, "later") })
	hooks := 0
	k.AfterDelta = func() { hooks++ }
	if r := k.Run(); r != StopFinish {
		t.Fatalf("stop = %v", r)
	}
	want := map[string]bool{"finishes": true, "same-delta-a": true, "same-delta-b": true}
	for _, l := range log {
		if !want[l] {
			t.Errorf("event %q ran after the finish boundary", l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("event %q did not run before the finish boundary", l)
	}
	if hooks != 1 {
		t.Errorf("AfterDelta ran %d times, want once at the cut", hooks)
	}
}

// TestEngineEventBudgetCutIsConfigurationInvariant pins the budget
// rule: the run stops the moment the budget is spent, even in the
// middle of a delta's drain, so a budget-aborted run executes exactly
// MaxEvents events and stops at the same event every time.
func TestEngineEventBudgetCutIsConfigurationInvariant(t *testing.T) {
	run := func() (StopReason, int, uint64, Time) {
		k := NewKernel()
		k.MaxEvents = 100
		executed := 0
		for i := 0; i < 3; i++ {
			var hop func()
			hop = func() { // one event per time step, forever
				executed++
				k.Schedule(1, hop)
			}
			k.Active(hop)
		}
		r := k.Run()
		return r, executed, k.Events(), k.Now()
	}
	r, executed, events, now := run()
	if r != StopEvents {
		t.Fatalf("stop = %v, want event-limit", r)
	}
	if executed != 100 || events != 101 {
		t.Errorf("executed %d events (counted %d), want 100 (101)", executed, events)
	}
	// Three chains per step: the 101st event falls in the 34th step.
	if now != 33 {
		t.Errorf("cut at time %d, want 33", now)
	}
	r2, executed2, events2, now2 := run()
	if r2 != r || executed2 != executed || events2 != events || now2 != now {
		t.Errorf("second run cut differently: (%v %d %d %d) vs (%v %d %d %d)",
			r2, executed2, events2, now2, r, executed, events, now)
	}
}

// TestEngineDeltaSerialMonotonic pins the run-global delta serial:
// shared by every event of one delta, strictly increasing across deltas
// and time steps, and never the reserved zero value.
func TestEngineDeltaSerialMonotonic(t *testing.T) {
	k := NewKernel()
	var aSerials, bSerials []uint64
	hop := 0
	var spin func()
	spin = func() {
		aSerials = append(aSerials, k.DeltaSerial())
		hop++
		if hop < 3 {
			nbaDo(k, func() { k.Active(spin) })
		} else if hop == 3 {
			k.Schedule(5, spin)
		}
	}
	k.Active(spin)
	k.Active(func() { bSerials = append(bSerials, k.DeltaSerial()) })
	if r := k.Run(); r != StopIdle {
		t.Fatalf("stop = %v", r)
	}
	if len(aSerials) != 4 || aSerials[0] == 0 {
		t.Fatalf("serials = %v; want 4, starting above the reserved zero", aSerials)
	}
	if len(bSerials) != 1 || bSerials[0] != aSerials[0] {
		t.Errorf("events of one delta disagree on its serial: %v vs %v", aSerials, bSerials)
	}
	for i := 1; i < len(aSerials); i++ {
		if aSerials[i] <= aSerials[i-1] {
			t.Errorf("serials not strictly increasing: %v", aSerials)
		}
	}
}
