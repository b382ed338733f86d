package sim

import "fmt"

// Time is simulated time in arbitrary units (the front-ends use 1 = 1ns).
type Time uint64

// futureEvent is a callback scheduled at an absolute time.
type futureEvent struct {
	at  Time
	seq uint64 // FIFO tiebreak within one time
	fn  func()
}

// futureQueue is a binary min-heap ordered by (at, seq). It is
// hand-rolled rather than built on container/heap so pushes and pops
// move futureEvent values directly instead of boxing them through
// interface{} — the time wheel is hot and must not allocate per event.
type futureQueue []futureEvent

func (q futureQueue) Len() int { return len(q) }

func (q futureQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *futureQueue) push(ev futureEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *futureQueue) pop() futureEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = futureEvent{} // release the closure
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// StopReason reports why Run returned.
type StopReason int

// Stop reasons.
const (
	StopIdle    StopReason = iota // no events left
	StopFinish                    // a process called Finish ($finish)
	StopTimeout                   // simulated-time limit reached
	StopDeltas                    // delta-cycle limit exceeded (oscillation)
	StopEvents                    // total event budget exceeded
)

func (r StopReason) String() string {
	switch r {
	case StopIdle:
		return "idle"
	case StopFinish:
		return "finish"
	case StopTimeout:
		return "timeout"
	case StopDeltas:
		return "delta-limit"
	default:
		return "event-limit"
	}
}

// Kernel is the event scheduler of one simulation: it owns simulated
// time, the time wheel, and the active and NBA regions, and Run
// sequences them through the stratified delta-cycle loop.
//
// The active and nba regions reuse their backing arrays across delta
// cycles: active drains through a cursor and is reset to length zero
// once empty, and nba swaps between two buffers, so a steady-state
// simulation schedules millions of events with no per-delta allocation.
type Kernel struct {
	now        Time
	seq        uint64
	future     futureQueue
	active     []func()
	activeHead int // next unconsumed index into active
	nba        []NBARecord
	nbaSpare   []NBARecord  // drained buffer recycled into nba
	recFree    []*NBARecord // pooled delayed-update records (see update.go)
	finished   bool

	// Run position: the current delta index within the time step, the
	// region being executed, and the run-global delta serial number.
	// VCD output is tagged with (now, delta, phase) (see outbuf.go);
	// front-ends use the serial for change-observation semantics such
	// as VHDL 'event.
	delta  int32
	serial uint64
	inNBA  bool

	// Limits guard against runaway simulations of buggy generated RTL.
	MaxTime   Time
	MaxDeltas int
	MaxEvents uint64

	// AfterDelta, when non-nil, runs at every delta boundary (after NBA
	// application, and once more at a finish/limit cut). Front-ends use
	// it for bookkeeping that must happen between deltas, such as
	// enabling the VCD dump.
	AfterDelta func()

	eventCount uint64
	fault      string
}

// Fault returns the message of a runtime fault raised by a process
// (an interpreter error on malformed RTL), or "".
func (k *Kernel) Fault() string { return k.fault }

// SetFault records a runtime fault and stops the simulation.
func (k *Kernel) SetFault(msg string) {
	if k.fault == "" {
		k.fault = msg
	}
	k.finished = true
}

// NewKernel returns a kernel with generous default limits.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.reset()
	return k
}

// reset returns k to its NewKernel state for the next run while keeping
// the backing arrays of its queues. Only the prefixes the last run
// filled are cleared, so the cost follows that run, and a reset kernel
// holds no closure, record or value of it: the time wheel, the active
// and NBA regions and the delayed-record free list are truncated; time,
// counters, serials, the fault and the limits go back to their initial
// values; AfterDelta is cleared.
func (k *Kernel) reset() {
	clear(k.future)
	clear(k.active)
	clear(k.nba)
	clear(k.recFree)
	*k = Kernel{
		future:    k.future[:0],
		active:    k.active[:0],
		nba:       k.nba[:0],
		nbaSpare:  k.nbaSpare[:0],
		recFree:   k.recFree[:0],
		MaxTime:   1_000_000,
		MaxDeltas: 10_000,
		MaxEvents: 50_000_000,
	}
}

// Now returns current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Delta returns the index of the delta cycle currently executing within
// the current time step.
func (k *Kernel) Delta() int32 { return k.delta }

// Phase returns 0 during the active region and 1 during the NBA region
// of the current delta.
func (k *Kernel) Phase() uint8 {
	if k.inNBA {
		return 1
	}
	return 0
}

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.eventCount }

// DeltaSerial returns the run-global serial number of the delta cycle
// currently executing. Unlike Delta it never resets, so it is safe to
// use for change stamps.
func (k *Kernel) DeltaSerial() uint64 { return k.serial }

// ObserverSerial returns the delta serial at which effects of the
// currently executing event become observable to awakened processes:
// the current delta during the active region (watchers fire into the
// same drain), the next one during the NBA region.
func (k *Kernel) ObserverSerial() uint64 {
	if k.inNBA {
		return k.serial + 1
	}
	return k.serial
}

// Schedule queues fn to run at now+delay in the active region.
func (k *Kernel) Schedule(delay Time, fn func()) {
	if delay == 0 {
		k.Active(fn)
		return
	}
	k.seq++
	k.future.push(futureEvent{at: k.now + delay, seq: k.seq, fn: fn})
}

// Active queues fn into the current delta's active region. When the
// queue is full and at least half of it has run, the unrun rest moves
// to its front first, so a drain that never empties (a zero-delay loop
// reactivating itself) holds its live events, not every event it ran.
func (k *Kernel) Active(fn func()) {
	if h := k.activeHead; len(k.active) == cap(k.active) && h > 0 && 2*h >= len(k.active) {
		n := copy(k.active, k.active[h:])
		clear(k.active[n:])
		k.active, k.activeHead = k.active[:n], 0
	}
	k.active = append(k.active, fn)
}

// Finish requests simulation stop at the end of the current event.
func (k *Kernel) Finish() { k.finished = true }

// Finished reports whether Finish has been called.
func (k *Kernel) Finished() bool { return k.finished }

// Run executes events until quiescence, Finish, or a limit:
//
//	for each time step:
//	  while active events or NBA updates are pending:
//	    drain the active region
//	    apply the NBA updates
//	  advance to the next scheduled time
//
// Stop requests (Finish, faults, limits) are honoured at delta
// boundaries. The event budget is checked per event inside the drain,
// so an event loop that never reaches a boundary still stops, and
// again at the boundary, where the run is cut.
func (k *Kernel) Run() StopReason {
	if k.serial == 0 {
		// Serial 0 is reserved as the "never changed" stamp value
		// front-ends store in fresh signals.
		k.serial = 1
	}
	for {
		deltas := 0
		for k.pending() {
			k.delta = int32(deltas)
			k.drainActive()
			if k.eventCount > k.MaxEvents {
				return k.stop(StopEvents)
			}
			if k.finished {
				return k.stop(StopFinish)
			}
			k.applyNBA()
			if k.finished {
				return k.stop(StopFinish)
			}
			if k.AfterDelta != nil {
				k.AfterDelta()
			}
			deltas++
			k.serial++
			if deltas > k.MaxDeltas {
				return k.stop(StopDeltas)
			}
		}
		if k.future.Len() == 0 {
			return StopIdle
		}
		next := k.future[0].at
		if next > k.MaxTime {
			return StopTimeout
		}
		k.advanceTo(next)
	}
}

// stop runs the boundary hook once more before a mid-time-step abort
// (finish, delta/event limit) returns. Requests made during the final
// delta — e.g. a $dumpvars sharing its delta with $finish — must still
// be honoured at the cut.
func (k *Kernel) stop(r StopReason) StopReason {
	if k.AfterDelta != nil {
		k.AfterDelta()
	}
	return r
}

// pending reports whether the kernel has work left in the current time
// step (unconsumed active events or queued NBA updates).
func (k *Kernel) pending() bool {
	return k.activeHead < len(k.active) || len(k.nba) > 0
}

// drainActive runs the active-region FIFO to exhaustion; events may
// append more, which run in the same drain (same delta). A Finish or
// fault does NOT abort the drain: stop requests take effect at the
// delta boundary. Only the event budget aborts mid-drain, since an
// event that unconditionally reactivates itself would otherwise never
// reach the boundary.
func (k *Kernel) drainActive() {
	for k.activeHead < len(k.active) {
		ev := k.active[k.activeHead]
		k.active[k.activeHead] = nil // release the closure
		k.activeHead++
		k.eventCount++
		if k.eventCount > k.MaxEvents {
			return
		}
		ev()
	}
	// Fully consumed: rewind so the backing array is reused.
	k.active = k.active[:0]
	k.activeHead = 0
}

// applyNBA applies the queued nonblocking-assignment updates of the
// current delta, in schedule order. Updates typically reactivate
// processes into the next delta's active region. The spare buffer is
// swapped in so updates scheduling new NBAs append into recycled
// storage; the drained records themselves are recycled too, so a
// steady-state run never allocates here. Applied records are zeroed
// before the buffer is parked as the spare — the same
// release-the-closure discipline the func() queue had, extended to the
// signal and value references a record carries.
func (k *Kernel) applyNBA() {
	if len(k.nba) == 0 {
		return
	}
	updates := k.nba
	k.nba = k.nbaSpare[:0]
	k.inNBA = true
	for i := range updates {
		r := &updates[i]
		r.Apply(r)
		*r = NBARecord{}
	}
	k.inNBA = false
	k.nbaSpare = updates[:0]
}

// advanceTo moves the kernel to time t and pulls every event scheduled
// at exactly t into the active region, in schedule order.
func (k *Kernel) advanceTo(t Time) {
	k.now = t
	k.delta = 0
	for k.future.Len() > 0 && k.future[0].at == t {
		k.Active(k.future.pop().fn)
	}
}

// ---------------------------------------------------------------- procs

// Process is a simulation process in continuation-passing form. Its
// suspended state is an explicit value (a Machine's program counter and
// per-op slots, or the stimulus harness's vector index and phase), not
// a blocked goroutine stack: each activation is a plain call of the
// step function, which runs the process up to its next delay or wait
// and returns after arranging its own reactivation. No goroutine or
// channel exists per process, so a kernel is fully dismantled by
// letting it go out of scope. A Process is a value its owner embeds;
// Start makes it a process of a kernel in place.
type Process struct {
	k    *Kernel
	name string
	step Stepper
	run  func() // the dispatch hook the kernel queues, bound by Start
	dead bool
}

// Stepper is a process's continuation: Step runs the process up to its
// next delay or wait, or to its end.
type Stepper interface{ Step() }

// Start makes p a process of k named name, whose continuation is step,
// and schedules its first activation in the current active region.
func (p *Process) Start(k *Kernel, name string, step Stepper) {
	*p = Process{k: k, name: name, step: step}
	p.run = p.dispatch
	k.Active(p.run)
}

// dispatch runs one step of a live process. Its one recover ends the
// process on any panic: TerminateProcess unwinds cleanly, a Fault
// becomes the run's fault, and any other panic is an interpreter fault
// on malformed RTL, recorded as a simulation fatal in the process
// instead of crashing the harness.
func (p *Process) dispatch() {
	if p.dead {
		return
	}
	defer p.recover()
	p.step.Step()
}

func (p *Process) recover() {
	switch r := recover().(type) {
	case nil:
		return
	case TerminateProcess:
	case Fault:
		p.k.SetFault(r.Msg)
	default:
		p.k.SetFault(fmt.Sprintf("simulation fatal in process %s: %v", p.name, r))
	}
	p.dead = true
}

// TerminateProcess is the panic sentinel a process step may raise to
// unwind itself cleanly (e.g. after $finish).
type TerminateProcess struct{}

// Delay schedules the process to step again after d time units. The
// caller must return from its step function afterwards; the suspended
// continuation is whatever state it left behind.
//
// Delay(0) is a yield, not a no-op: the process is rescheduled at the
// tail of the current active region, so every other event already
// queued in this delta (including processes spawned later) runs before
// the process resumes. This is the IEEE 1364 `#0` ordering and is
// pinned by TestZeroDelayYieldsFIFO.
func (p *Process) Delay(d Time) { p.k.Schedule(d, p.run) }

// Activate schedules the process to step again in the active region.
// A wait registration resumes its process through it.
func (p *Process) Activate() {
	if p.dead {
		return
	}
	p.k.Active(p.run)
}

// Terminate marks the process dead; pending activations become no-ops.
func (p *Process) Terminate() { p.dead = true }
