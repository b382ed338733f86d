package sim

// This file is the signal-watching protocol shared by the HDL
// front-ends (vsim, vhdlsim). Both interpreters used to hand-duplicate
// it; the semantics are identical, so prune/re-arm fixes now apply
// once. The protocol is parameterized over the front-end signal type
// simply by embedding: a front-end Signal embeds a WatchList and calls
// Notify on writes; everything watcher-shaped lives here.
//
//   - A WaitGroup is a one-shot event control: the first matching
//     trigger on any member watcher fires the group, kills all
//     members, and resumes the waiting activity.
//   - A Watcher observes one WatchList for its group. An optional
//     Trigger hook decides whether a notification matches (vsim uses
//     it for posedge/negedge detection); nil means level sensitivity.
//   - A WaitReg is a reusable registration over a fixed signal set:
//     wait sites with fixed sensitivity build one WaitReg and re-arm
//     it per pass instead of reallocating, so the hottest loop of the
//     simulator does not allocate.
//   - Dead watchers are pruned lazily: Notify drops them from the
//     list, and Rearm re-attaches only watchers that were pruned.

// Watcher observes one WatchList on behalf of a WaitGroup.
type Watcher struct {
	dead     bool
	attached bool // still present in its list
	group    *WaitGroup

	// Trigger decides whether a notification fires the group (vsim
	// edge detection); nil fires on every notification (level).
	Trigger func() bool
	// Arm re-baselines Trigger state when the registration re-arms
	// (vsim samples the current value as the edge baseline).
	Arm func()
}

func (w *Watcher) notify() {
	if w.dead {
		return
	}
	if w.Trigger == nil || w.Trigger() {
		w.group.Fire()
	}
}

// WaitGroup is a one-shot event control over a set of watchers.
type WaitGroup struct {
	fired    bool
	watchers []*Watcher
	resume   func()
}

// Fire fires the group once: all member watchers die and the waiting
// activity resumes. Subsequent calls are no-ops until re-armed.
func (g *WaitGroup) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	for _, w := range g.watchers {
		w.dead = true
	}
	g.resume()
}

// WatchList is the per-signal watcher registry. Front-end signal types
// embed one and call Notify whenever the signal's value changes.
type WatchList struct {
	watchers   []*Watcher
	persistent []func()
}

// Notify informs every live watcher of a change, pruning dead entries
// in place, then fires the persistent observers (continuous
// assignments, monitors, port bindings — callbacks that never detach).
func (l *WatchList) Notify() {
	live := l.watchers[:0]
	for _, w := range l.watchers {
		if w.dead {
			w.attached = false
			continue
		}
		w.notify()
		if !w.dead {
			live = append(live, w)
		} else {
			w.attached = false
		}
	}
	l.watchers = live
	for _, f := range l.persistent {
		f()
	}
}

// Watch registers a persistent observer.
func (l *WatchList) Watch(fire func()) {
	l.persistent = append(l.persistent, fire)
}

// WaitReg is a reusable wait registration: the group, its watchers,
// and the list each watcher attaches to.
type WaitReg struct {
	g     *WaitGroup
	ws    []*Watcher
	lists []*WatchList
}

// NewWaitReg returns an empty, un-armed registration that calls resume
// when fired.
func NewWaitReg(resume func()) *WaitReg {
	return &WaitReg{g: &WaitGroup{resume: resume, fired: true}}
}

// Add appends one watcher observing list. trigger and arm may be nil
// (level sensitivity).
func (r *WaitReg) Add(list *WatchList, trigger func() bool, arm func()) *Watcher {
	w := &Watcher{dead: true, group: r.g, Trigger: trigger, Arm: arm}
	r.g.watchers = append(r.g.watchers, w)
	r.ws = append(r.ws, w)
	r.lists = append(r.lists, list)
	return w
}

// Empty reports whether the registration watches nothing (callers
// typically resume immediately to avoid deadlock, or reject the wait).
func (r *WaitReg) Empty() bool { return len(r.ws) == 0 }

// Rearm brings every watcher back alive with a freshly sampled
// baseline and re-attaches those that were lazily pruned from their
// lists.
func (r *WaitReg) Rearm() {
	r.g.fired = false
	for i, w := range r.ws {
		w.dead = false
		if w.Arm != nil {
			w.Arm()
		}
		if !w.attached {
			w.attached = true
			l := r.lists[i]
			l.watchers = append(l.watchers, w)
		}
	}
}
