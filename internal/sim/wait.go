package sim

import "repro/internal/hdl"

// Signal watching, shared by the HDL front-ends (vsim, vhdlsim). A
// front-end signal type embeds a WatchList and calls Notify on every
// change of its value. A wait site holds one WaitReg: a watcher per
// signal of its sensitivity, each firing on any change (Level) or on an
// edge of a sampled bit (Rising, Falling). The first watcher that fires
// kills them all and resumes the site's process; Rearm brings them back
// for the next wait, so a site that waits again and again does not
// allocate. Dead watchers are pruned lazily: Notify drops them from
// its list, and Rearm re-attaches only the watchers that were pruned.

// Edge is what a watcher fires on.
type Edge uint8

const (
	Level   Edge = iota // any change of the watched signal
	Rising              // a posedge of the sampled bit
	Falling             // a negedge of the sampled bit
)

// edgeMatch implements the IEEE 1364 edge table.
func edgeMatch(old, nv hdl.Logic, edge Edge) bool {
	if old == nv {
		return false
	}
	switch edge {
	case Rising:
		// 0->1, 0->x/z, x/z->1
		return (old == hdl.L0) || (nv == hdl.L1)
	case Falling:
		return (old == hdl.L1) || (nv == hdl.L0)
	}
	return false
}

// Sampler samples the bit whose edges the watchers of a registration's
// sensitivity item fire on: the Runtime samples bit 0 of a lowered
// sensitivity item, vsim's stimulus shell its clock.
type Sampler interface {
	Sample(item int) hdl.Logic
}

// watcher observes one WatchList for its registration. It is live while
// the registration is armed and has not fired.
type watcher struct {
	reg      *WaitReg
	list     *WatchList
	edge     Edge
	item     int       // the sensitivity item whose bit an edge watcher samples
	last     hdl.Logic // an edge watcher's baseline: the bit it last sampled
	attached bool      // still present in its list
}

func (w *watcher) notify() {
	if w.reg.fired {
		return
	}
	if w.edge != Level {
		nv := w.reg.sample.Sample(w.item)
		old := w.last
		w.last = nv
		if !edgeMatch(old, nv, w.edge) {
			return
		}
	}
	w.reg.fire()
}

// WatchList is the per-signal watcher registry. Front-end signal types
// embed one and call Notify whenever the signal's value changes.
type WatchList struct {
	watchers   []*watcher
	persistent []func()
	mark       uint32 // Runtime.Reads: already in the read set being built
}

// Notify informs every live watcher of a change, pruning dead entries
// in place, then fires the persistent observers (continuous
// assignments, monitors, port bindings — callbacks that never detach).
func (l *WatchList) Notify() {
	live := l.watchers[:0]
	for _, w := range l.watchers {
		w.notify()
		if w.attached = !w.reg.fired; w.attached {
			live = append(live, w)
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

// WaitReg is a wait site's registration: the process it resumes and
// its watchers, held by value. The first watcher to fire fires the
// registration, once per arming, which kills every watcher. It is built
// once, by Init and then Watch per watched signal, and must not move
// after its first Watch: its watchers point back at it.
type WaitReg struct {
	p        *Process
	sample   Sampler
	fired    bool
	watchers []watcher
}

// Init empties r and makes it an unarmed registration that resumes p,
// with sample sampling the bits of its edge watchers (nil when every
// watcher is Level).
func (r *WaitReg) Init(p *Process, sample Sampler) {
	*r = WaitReg{p: p, sample: sample, fired: true}
}

// Watch adds a watcher on list that fires on edge of the bit sampled
// for item, or on any change when edge is Level.
func (r *WaitReg) Watch(list *WatchList, edge Edge, item int) {
	r.watchers = append(r.watchers, watcher{reg: r, list: list, edge: edge, item: item})
}

// Empty reports whether the registration watches nothing (callers
// typically resume immediately to avoid deadlock, or reject the wait).
func (r *WaitReg) Empty() bool { return len(r.watchers) == 0 }

// fire resumes the process, once per arming.
func (r *WaitReg) fire() {
	if !r.fired {
		r.fired = true
		r.p.Activate()
	}
}

// Rearm brings every watcher back alive, samples each edge watcher's
// baseline, and re-attaches the watchers that were lazily pruned from
// their lists.
func (r *WaitReg) Rearm() {
	r.fired = false
	for i := range r.watchers {
		w := &r.watchers[i]
		if w.edge != Level {
			w.last = r.sample.Sample(w.item)
		}
		if !w.attached {
			w.attached = true
			w.list.watchers = append(w.list.watchers, w)
		}
	}
}
