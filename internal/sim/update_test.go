package sim

import "testing"

// collector is a minimal front-end stand-in: an apply hook that logs
// (Sig, Lo, Aux) application order.
type collector struct {
	order []int
	hook  func(*NBARecord)
}

func newCollector() *collector {
	c := &collector{}
	c.hook = func(r *NBARecord) { c.order = append(c.order, r.Aux) }
	return c
}

// TestNBARecordOrder pins that records apply in schedule order.
func TestNBARecordOrder(t *testing.T) {
	k := NewKernel()
	c := newCollector()
	k.Active(func() {
		for aux := 1; aux <= 3; aux++ {
			r := k.NBAPut()
			r.Apply, r.Aux = c.hook, aux
		}
	})
	if r := k.Run(); r != StopIdle {
		t.Fatalf("run stopped with %v", r)
	}
	if len(c.order) != 3 || c.order[0] != 1 || c.order[1] != 2 || c.order[2] != 3 {
		t.Fatalf("apply order = %v, want [1 2 3]", c.order)
	}
}

// TestNBARecordChaining pins that an apply hook may schedule further
// records, which land in the NEXT delta's NBA region (the recycled
// spare buffer), not the one being drained.
func TestNBARecordChaining(t *testing.T) {
	k := NewKernel()
	c := newCollector()
	deltas := []int32{}
	var hook func(*NBARecord)
	hook = func(r *NBARecord) {
		c.order = append(c.order, r.Aux)
		deltas = append(deltas, k.Delta())
		if r.Aux < 3 {
			next := r.Aux + 1
			nr := k.NBAPut() // scheduled from within the NBA drain
			nr.Apply, nr.Aux = hook, next
		}
	}
	k.Active(func() {
		r := k.NBAPut()
		r.Apply, r.Aux = hook, 1
	})
	if r := k.Run(); r != StopIdle {
		t.Fatalf("run stopped with %v", r)
	}
	if len(c.order) != 3 || c.order[0] != 1 || c.order[1] != 2 || c.order[2] != 3 {
		t.Fatalf("apply order = %v, want [1 2 3]", c.order)
	}
	if deltas[0] == deltas[1] || deltas[1] == deltas[2] {
		t.Fatalf("chained records applied in deltas %v, want three distinct deltas", deltas)
	}
}

// TestScheduleUpdateDelayed pins delayed records: they fire in the
// active region of their target time in seq order with other future
// events, and the record returns to the kernel pool for reuse.
func TestScheduleUpdateDelayed(t *testing.T) {
	k := NewKernel()
	c := newCollector()
	var at []Time
	hook := func(r *NBARecord) {
		c.order = append(c.order, r.Aux)
		at = append(at, k.Now())
	}
	k.Active(func() {
		r := k.ScheduleUpdate(5)
		r.Apply, r.Aux = hook, 50
		k.Schedule(3, func() { c.order = append(c.order, 30) })
		r = k.ScheduleUpdate(3)
		r.Apply, r.Aux = hook, 31
	})
	if r := k.Run(); r != StopIdle {
		t.Fatalf("run stopped with %v", r)
	}
	want := []int{30, 31, 50}
	if len(c.order) != 3 || c.order[0] != want[0] || c.order[1] != want[1] || c.order[2] != want[2] {
		t.Fatalf("apply order = %v, want %v", c.order, want)
	}
	if at[0] != 3 || at[1] != 5 {
		t.Fatalf("applied at times %v, want [3 5]", at)
	}
	if len(k.recFree) != 2 {
		t.Fatalf("free list holds %d records after the run, want 2", len(k.recFree))
	}
	// Reuse: the next delayed update must come from the pool.
	r := k.ScheduleUpdate(1)
	if r.Apply != nil || r.Sig != nil {
		t.Fatal("pooled record was not cleared on release")
	}
	if len(k.recFree) != 1 {
		t.Fatalf("free list holds %d records after reuse, want 1", len(k.recFree))
	}
}

// TestNBARecordSteadyStateZeroAllocs extends the kernel's hot-loop
// guarantee to the typed update queue: once the region buffers and the
// delayed-record pool have grown, scheduling and applying updates —
// zero-delay records every delta plus a delayed record per time step —
// allocates nothing.
func TestNBARecordSteadyStateZeroAllocs(t *testing.T) {
	k := NewKernel()
	const steps = 500
	n := 0
	var hook func(*NBARecord)
	var tick func()
	hook = func(r *NBARecord) {
		n++
		if n < steps {
			k.Active(tick)
		}
	}
	tick = func() {
		r := k.NBAPut()
		r.Apply = hook
		dr := k.ScheduleUpdate(1)
		dr.Apply = hook
		n++
	}
	run := func() {
		n = 0
		k.Active(tick)
		if r := k.Run(); r != StopIdle {
			t.Fatalf("run stopped with %v", r)
		}
	}
	run() // warm-up: grow buffers and pool
	avg := testing.AllocsPerRun(5, run)
	if avg >= 1 {
		t.Errorf("allocs per %d-step record run = %v, want < 1 (pooled-update regression)", steps, avg)
	}
}
