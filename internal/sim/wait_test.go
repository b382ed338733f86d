package sim

import (
	"testing"

	"repro/internal/hdl"
)

// waiter starts a process, on a kernel of its own, that runs onResume
// on every step after its first, and returns it with a function that
// runs the activations queued so far.
func waiter(onResume func()) (*Process, func()) {
	k := NewKernel()
	p := new(Process)
	started := false
	p.Start(k, "waiter", stepFunc(func() {
		if started {
			onResume()
		}
		started = true
	}))
	run := func() { k.Run() }
	run()
	return p, run
}

// sampleFunc samples an edge watcher's bit through a function.
type sampleFunc func(item int) hdl.Logic

func (f sampleFunc) Sample(item int) hdl.Logic { return f(item) }

// TestWaitRegFireDetachRearm pins the shared one-shot protocol: the
// first notification fires the registration exactly once, every
// watcher dies, dead watchers are lazily pruned from their lists, and Rearm
// re-attaches only pruned watchers (no duplicates when the entry is
// still present).
func TestWaitRegFireDetachRearm(t *testing.T) {
	var la, lb WatchList
	resumed := 0
	p, run := waiter(func() { resumed++ })
	var r WaitReg
	r.Init(p, nil)
	r.Watch(&la, Level, 0)
	r.Watch(&lb, Level, 0)
	if !r.Empty() == false {
		t.Fatal("registration with watchers reports Empty")
	}
	r.Rearm()
	if len(la.watchers) != 1 || len(lb.watchers) != 1 {
		t.Fatalf("arm attached %d/%d watchers, want 1/1", len(la.watchers), len(lb.watchers))
	}

	la.Notify() // fires the registration
	run()
	if resumed != 1 {
		t.Fatalf("resumed %d times after first trigger, want 1", resumed)
	}
	lb.Notify() // already fired: must not resume again, prunes b
	run()
	if resumed != 1 {
		t.Fatalf("resumed %d times after second list notify, want 1", resumed)
	}
	if len(lb.watchers) != 0 {
		t.Fatalf("dead watcher not pruned from list b (len %d)", len(lb.watchers))
	}
	// la fired its watcher while notifying, so the watcher died during
	// its own notification and was pruned in the same pass.
	if len(la.watchers) != 0 {
		t.Fatalf("dead watcher not pruned from list a (len %d)", len(la.watchers))
	}

	// Re-arm: both watchers were pruned, both re-attach exactly once.
	r.Rearm()
	if len(la.watchers) != 1 || len(lb.watchers) != 1 {
		t.Fatalf("rearm attached %d/%d watchers, want 1/1", len(la.watchers), len(lb.watchers))
	}
	lb.Notify()
	run()
	if resumed != 2 {
		t.Fatalf("resumed %d times after rearmed trigger, want 2", resumed)
	}
}

// TestWaitRegRearmWithoutPrune covers the lazy-prune interaction: when
// the registration fires but the signal is never written again before the
// re-arm, the dead entry is still present in the list; Rearm must
// revive it in place rather than attach a duplicate.
func TestWaitRegRearmWithoutPrune(t *testing.T) {
	var la, lb WatchList
	resumed := 0
	p, run := waiter(func() { resumed++ })
	var r WaitReg
	r.Init(p, nil)
	r.Watch(&la, Level, 0)
	r.Watch(&lb, Level, 0)
	r.Rearm()
	la.Notify()
	run()
	if resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resumed)
	}
	// lb was never notified: its dead watcher is still attached.
	if len(lb.watchers) != 1 {
		t.Fatalf("unexpected prune of unnotified list (len %d)", len(lb.watchers))
	}
	r.Rearm()
	if len(lb.watchers) != 1 {
		t.Fatalf("rearm duplicated the still-attached watcher (len %d)", len(lb.watchers))
	}
	lb.Notify()
	run()
	if resumed != 2 {
		t.Fatalf("resumed = %d after rearm, want 2", resumed)
	}
}

// TestWaitRegEdgeTrigger pins a Rising watcher's edge detection on its
// sampled bit: a 0->1 transition fires, 1->0 does not, and Rearm
// re-baselines so a level that was already 1 at arm time does not fire
// until the next rising edge.
func TestWaitRegEdgeTrigger(t *testing.T) {
	var l WatchList
	val := hdl.L0
	resumed := 0
	p, run := waiter(func() { resumed++ })
	var r WaitReg
	r.Init(p, sampleFunc(func(int) hdl.Logic { return val }))
	r.Watch(&l, Rising, 0)
	r.Rearm() // baseline 0

	val = hdl.L1
	l.Notify()
	run()
	if resumed != 1 {
		t.Fatalf("posedge did not fire (resumed=%d)", resumed)
	}

	// Re-arm while the level is still high: no fire until a fresh edge.
	r.Rearm()
	l.Notify() // 1 -> 1: no edge
	run()
	if resumed != 1 {
		t.Fatalf("level notify fired without an edge (resumed=%d)", resumed)
	}
	val = hdl.L0
	l.Notify() // negedge: no fire
	run()
	if resumed != 1 {
		t.Fatalf("negedge fired a posedge watcher (resumed=%d)", resumed)
	}
	val = hdl.L1
	l.Notify() // posedge again
	run()
	if resumed != 2 {
		t.Fatalf("second posedge did not fire (resumed=%d)", resumed)
	}
}

// TestWatchListPersistent pins persistent observers: they fire on every
// notification, never detach, and run after the one-shot watchers of
// the same notification.
func TestWatchListPersistent(t *testing.T) {
	var l WatchList
	var order []string
	p, run := waiter(func() { order = append(order, "oneshot") })
	// The observer first runs the resumptions the notification queued.
	l.Watch(func() { run(); order = append(order, "persistent") })
	var r WaitReg
	r.Init(p, nil)
	r.Watch(&l, Level, 0)
	r.Rearm()
	l.Notify()
	l.Notify()
	want := []string{"oneshot", "persistent", "persistent"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
