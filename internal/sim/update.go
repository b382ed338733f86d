package sim

import "repro/internal/hdl"

// NBARecord is one pending signal update in typed, pooled form: the
// target (an opaque front-end signal pointer), the resolved write
// bounds, the pending value, and a pre-bound Apply hook that commits
// it. It replaces the per-update closures the nonblocking-assignment
// region used to queue — a closure costs a heap allocation per
// scheduled update, while records live in recycled kernel storage, so a
// steady-state simulation schedules millions of updates with no
// allocation at all.
//
// The kernel never interprets the front-end fields; it only stores the
// record and calls Apply(r) in schedule order. Apply hooks must be
// pre-bound once per simulator/site (a method value created at schedule
// time would itself allocate).
type NBARecord struct {
	// Apply commits the update. It runs in the NBA region (zero-delay
	// records) or the active region of a later time step (delayed
	// records), in schedule order.
	Apply func(r *NBARecord)

	// Front-end payload. Sig is the resolved target signal; Val the
	// pending value; Lo/Width the bit range for partial writes; Aux
	// front-end scratch (e.g. a memory word index).
	Sig   any
	Val   hdl.Vector
	Lo    int
	Width int
	Aux   int

	// Pool linkage for delayed records: the owning kernel and the
	// pre-built future-event closure that applies the record and
	// returns it to the free list. Zero-delay records live in the nba
	// region slice and leave both nil.
	k    *Kernel
	fire func()
}

// MaxNBA bounds the updates one delta cycle may queue. A zero-delay
// loop that schedules an update on every pass (an always @* that reads
// no signal, a VHDL process with no wait) would otherwise queue one
// record per pass until the statement budget stops it, holding
// millions at once; NBAPut cuts the run at this bound with nbaFault
// instead. The largest region any test reaches holds 400 records.
const (
	MaxNBA   = 1 << 16
	nbaFault = "more than 65536 updates queued in one delta cycle (zero-delay loop?)"
)

// NBAPut appends a zeroed update record to the nonblocking-assignment
// region of the current time slot and returns it for the caller to
// fill in. Records apply in put order. The pointer is valid only until
// the next NBAPut call on this kernel: the backing slice is recycled
// across delta cycles (nbaSpare), records included, and may move when
// it grows. Past MaxNBA records it panics with a Fault, which the
// process dispatch or Recover around the caller records.
func (k *Kernel) NBAPut() *NBARecord {
	if len(k.nba) >= MaxNBA {
		panic(Fault{Msg: nbaFault})
	}
	if len(k.nba) < cap(k.nba) {
		k.nba = k.nba[:len(k.nba)+1]
	} else {
		k.nba = append(k.nba, NBARecord{})
	}
	r := &k.nba[len(k.nba)-1]
	*r = NBARecord{}
	return r
}

// ScheduleUpdate returns a pooled update record that will be applied at
// now+delay. Zero delay queues into the current slot's NBA region
// (identical to NBAPut); positive delays schedule the record on the
// time wheel, to apply in the active region of its target time — the
// same region ordering the closure-based Schedule gave scheduled signal
// assignments. Delayed records come from a per-kernel free list with
// pre-built fire closures, so steady-state scheduling does not
// allocate once the pool has grown to the high-water mark of in-flight
// updates.
func (k *Kernel) ScheduleUpdate(delay Time) *NBARecord {
	if delay == 0 {
		return k.NBAPut()
	}
	var r *NBARecord
	if n := len(k.recFree); n > 0 {
		r = k.recFree[n-1]
		k.recFree[n-1] = nil
		k.recFree = k.recFree[:n-1]
	} else {
		r = &NBARecord{k: k}
		r.fire = func() {
			r.Apply(r)
			r.release()
		}
	}
	k.seq++
	k.future.push(futureEvent{at: k.now + delay, seq: k.seq, fn: r.fire})
	return r
}

// release clears a delayed record's payload (dropping its references)
// and returns it to the owning kernel's free list, keeping only the
// pool linkage.
func (r *NBARecord) release() {
	*r = NBARecord{k: r.k, fire: r.fire}
	r.k.recFree = append(r.k.recFree, r)
}
