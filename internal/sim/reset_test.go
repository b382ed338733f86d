package sim

import (
	"reflect"
	"testing"
)

// scenarios are runs that leave every kind of state behind in a
// runtime: a limit cut with active events queued, NBA records and
// delayed records in flight, a fault, a log, a spent statement budget
// and an AfterDelta hook.
var scenarios = []struct {
	name string
	opts Options
	run  func(r *Runtime)
}{
	{"event-limit", Options{}, func(r *Runtime) {
		r.Kernel.MaxEvents = 100
		var loop func()
		loop = func() { r.Kernel.Active(loop) }
		r.Kernel.Active(loop)
	}},
	{"nba-at-finish", Options{File: "x.v"}, func(r *Runtime) {
		r.Kernel.AfterDelta = func() { r.Logf("delta %d\n", r.Kernel.DeltaSerial()) }
		spawn(r.Kernel, "p", func(p *Process) {
			r.Logf("at %d\n", r.Kernel.Now())
			if r.Kernel.Now() == 3 {
				nbaDo(r.Kernel, func() { r.Logf("never\n") })
				r.Kernel.Finish()
				return
			}
			p.Delay(1)
		})
	}},
	{"delayed-updates", Options{MaxTime: 25}, func(r *Runtime) {
		var tick func()
		tick = func() {
			u := r.Kernel.ScheduleUpdate(7)
			u.Apply = func(*NBARecord) { r.Logf("update at %d\n", r.Kernel.Now()) }
			r.Kernel.Schedule(5, tick)
		}
		r.Kernel.Active(tick)
	}},
	{"fault-and-budget", Options{MaxOutput: 40}, func(r *Runtime) {
		spawn(r.Kernel, "bad", func(p *Process) {
			for i := 0; i < 10; i++ {
				r.Tick()
				r.Logf("step %d\n", i)
			}
			r.steps = stepBudget
			r.Tick()
		})
	}},
}

// TestRuntimeResetMatchesNew: each scenario run on one runtime, reset
// between runs, has the outcome it has on a fresh runtime, and a reset
// kernel equals a new one apart from the storage it keeps.
func TestRuntimeResetMatchesNew(t *testing.T) {
	r := NewRuntime(Options{}, "tb", "budget")
	for round := 0; round < 2; round++ {
		for _, sc := range scenarios {
			r.Start(sc.opts)
			sc.run(&r)
			got := r.Execute()
			r.Reset()

			fresh := NewRuntime(sc.opts, "tb", "budget")
			sc.run(&fresh)
			if want := fresh.Execute(); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d %s: recycled runtime gave %+v, a fresh one %+v", round, sc.name, got, want)
			}
			if r.steps != 0 || len(r.log) != 0 || r.File != "" {
				t.Errorf("%s: reset left steps %d, %d log bytes, file %q", sc.name, r.steps, len(r.log), r.File)
			}
			k := *r.Kernel
			k.future, k.active, k.nba, k.nbaSpare, k.recFree = nil, nil, nil, nil, nil
			if !reflect.DeepEqual(&k, NewKernel()) {
				t.Errorf("%s: reset kernel %+v, want a new kernel's state", sc.name, k)
			}
			for _, q := range []int{len(r.Kernel.future), len(r.Kernel.active), len(r.Kernel.nba), len(r.Kernel.nbaSpare), len(r.Kernel.recFree)} {
				if q != 0 {
					t.Errorf("%s: reset kernel keeps a queued entry", sc.name)
				}
			}
		}
	}
}

// TestArenaResetRecycles: after Reset the arena hands out the same
// storage in the same order, zeroed, without allocating; Reset zeroes
// only what was handed out since the last one; Each visits the values
// in Alloc order.
func TestArenaResetRecycles(t *testing.T) {
	var a Arena[[2]int]
	var first []*[2]int
	for i := 0; i < 100; i++ {
		p := a.Alloc()
		p[0] = i + 1
		first = append(first, p)
	}
	n := 0
	a.Each(func(p *[2]int) {
		if p != first[n] {
			t.Fatalf("Each visited value %d out of order", n)
		}
		n++
	})
	if n != 100 {
		t.Fatalf("Each visited %d values, want 100", n)
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			if p := a.Alloc(); p != first[i] || *p != ([2]int{}) {
				t.Fatalf("Alloc %d after Reset: %p holding %v, want %p zeroed", i, p, *p, first[i])
			}
		}
		a.Reset()
	}); allocs != 0 {
		t.Errorf("a recycled arena allocates %v times per run, want 0", allocs)
	}

	// A run of 3 values must leave the storage past them untouched.
	for i := 0; i < 3; i++ {
		a.Alloc()[0] = 7
	}
	first[50][1] = 42
	a.Reset()
	if first[50][1] != 42 || first[0][0] != 0 {
		t.Errorf("Reset after a 3-value run: value 50 = %v, value 0 = %v; want 50 untouched and 0 zeroed", *first[50], *first[0])
	}
}

// TestMapsReset: the n-th Get after a Reset returns the n-th map from
// before it, emptied, unless that map held under a quarter of its peak,
// which is dropped for a fresh one.
func TestMapsReset(t *testing.T) {
	var p Maps[int, int]
	small, big := p.Get(0), p.Get(0)
	for i := 0; i < 100; i++ {
		big[i] = i
	}
	small[1] = 1
	p.Reset()
	if m := p.Get(0); reflect.ValueOf(m).Pointer() != reflect.ValueOf(small).Pointer() || len(m) != 0 {
		t.Errorf("first Get after Reset: not the first map, emptied")
	}
	m := p.Get(0)
	if reflect.ValueOf(m).Pointer() != reflect.ValueOf(big).Pointer() || len(m) != 0 {
		t.Fatalf("second Get after Reset: not the second map, emptied")
	}
	m[1] = 1 // 1 of a 100-entry peak
	p.Reset()
	p.Get(0)
	if m2 := p.Get(0); reflect.ValueOf(m2).Pointer() == reflect.ValueOf(big).Pointer() {
		t.Errorf("a map holding 1 of its 100-entry peak was kept, want it dropped")
	}
}
