package sim

import (
	"fmt"
	"strings"

	"repro/internal/hdl"
	"repro/internal/lex"
)

// Options configures one simulation run. Both front-ends alias it
// (vsim.Options, vhdlsim.Options).
type Options struct {
	MaxTime   Time   // simulated-time limit (default 1,000,000)
	File      string // logical testbench file name used in stop/failure lines (default per HDL)
	MaxOutput int    // cap on captured log bytes (default 1 MiB)

	// CaptureFinal populates Outcome.Final with the post-run value of
	// every non-memory signal (used by the differential harness).
	CaptureFinal bool
}

// Outcome is the HDL-neutral part of a run's result; both front-ends'
// Result types embed it.
type Outcome struct {
	Log      string
	TimedOut bool   // hit MaxTime or the event/delta limits
	Fault    string // first runtime fault, "" when none
	EndTime  Time
	Events   uint64            // kernel events executed
	Final    map[string]string // hierarchical name -> final value (CaptureFinal)
}

// Fault is the panic value an interpreter raises to unwind on a
// runtime error in malformed RTL; Recover, and a process's dispatch,
// turn it into the run's fault instead of a crash.
type Fault struct{ Msg string }

// Faultf returns a Fault with a formatted message.
func Faultf(format string, args ...any) Fault {
	return Fault{Msg: fmt.Sprintf(format, args...)}
}

// ElabError is an elaboration failure: the design is structurally
// unusable. Its text is "line:col: msg".
type ElabError struct {
	Pos lex.Pos
	Msg string
}

func (e *ElabError) Error() string { return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg) }

// ElabErrf returns an ElabError at pos with a formatted message.
func ElabErrf(pos lex.Pos, format string, args ...any) *ElabError {
	return &ElabError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Elaboration bounds shared by both front-ends. MaxInstances bounds
// the instances one design may elaborate, so a unit that instantiates
// another several times per level cannot multiply into unbounded work
// below the MaxDepth nesting limit.
const (
	MaxInstances = 4096
	MaxDepth     = 64
)

// stepBudget bounds the interpreter statements one run may execute.
const stepBudget = 20_000_000

// Runtime is the run shell a front-end Simulator embeds: the kernel,
// the testbench file name, the capped log, the statement budget and
// the fault handling. Exactly one activity executes at a time, so it
// needs no locks. A Runtime serves one run after another: Start
// configures a run, and Reset clears it while keeping the kernel's
// queues and the log buffer for the next one.
type Runtime struct {
	Kernel *Kernel
	File   string

	log         []byte
	logCap      int
	steps       uint64 // interpreter statement budget spent
	defaultFile string
	budgetFault string

	waits Arena[WaitReg] // the wait registrations of the run's Machines
	stim  stimulusRun    // the stimulus harness process (StartStimulus)

	// The run's lowered expressions (expr.go): their nodes, constants
	// and lists, the wait sites' sensitivity items, and the evaluator's
	// state.
	exprs    Arena[Expr]
	consts   Arena[hdl.Vector]
	lists    Slab[*Expr]
	sens     []sensItem
	parts    []hdl.Vector // a concatenation's evaluated parts
	reads    []*WatchList // the last Reads result
	readMark uint32       // marks the watch lists of the Reads in progress
	gen      uint32       // numbers top-level evaluations, for Dyn widths
	rng      uint64       // the Verilog $random stream
}

// rngSeed starts every run's $random stream.
const rngSeed = 0x9E3779B97F4A7C15

// NewRuntime returns the shell of one run under opts on a fresh
// kernel. defaultFile names the testbench when opts.File is empty, and
// budgetFault is the fault text Tick raises once the statement budget
// is spent.
func NewRuntime(opts Options, defaultFile, budgetFault string) Runtime {
	r := Runtime{Kernel: NewKernel(), defaultFile: defaultFile, budgetFault: budgetFault, rng: rngSeed}
	r.Start(opts)
	return r
}

// Start configures a fresh or reset runtime for one run under opts.
func (r *Runtime) Start(opts Options) {
	if opts.MaxTime != 0 {
		r.Kernel.MaxTime = opts.MaxTime
	}
	r.File = opts.File
	if r.File == "" {
		r.File = r.defaultFile
	}
	r.logCap = opts.MaxOutput
	if r.logCap == 0 {
		r.logCap = 1 << 20
	}
}

// Reset returns the runtime to the state NewRuntime left it in, before
// Start: the kernel is reset, the log buffer truncated, the statement
// budget refilled, the $random stream restarted, and the wait
// registrations, the stimulus harness and the lowered expressions
// cleared.
func (r *Runtime) Reset() {
	r.Kernel.reset()
	r.log = r.log[:0]
	r.steps = 0
	r.File, r.logCap = "", 0
	r.waits.Reset()
	r.stim = stimulusRun{}
	r.exprs.Reset()
	r.consts.Reset()
	r.lists.Reset()
	clear(r.sens)
	r.sens = r.sens[:0]
	clear(r.reads[:cap(r.reads)])
	r.reads = r.reads[:0]
	clear(r.parts[:cap(r.parts)])
	r.parts = r.parts[:0]
	r.readMark, r.gen, r.rng = 0, 0, rngSeed
}

// Logf appends formatted text to the log; writes past the cap are
// dropped.
func (r *Runtime) Logf(format string, args ...any) {
	if len(r.log) > r.logCap {
		return
	}
	r.log = fmt.Appendf(r.log, format, args...)
}

// Tick charges one interpreter step against the run's statement budget.
func (r *Runtime) Tick() {
	r.steps++
	if r.steps > stepBudget {
		panic(Fault{Msg: r.budgetFault})
	}
}

// Recover, deferred around non-process work (continuous updates,
// observer registration), records a Fault panic as the run's fault and
// stops the run; any other panic propagates.
func (r *Runtime) Recover() {
	if v := recover(); v != nil {
		if f, ok := v.(Fault); ok {
			r.Kernel.SetFault(f.Msg)
			return
		}
		panic(v)
	}
}

// Execute runs the kernel to completion and returns the outcome. The
// log is cut at its cap; then a limit stop appends its abort line and
// a fault its SIMULATOR line, so both stay visible in a capped log.
func (r *Runtime) Execute() Outcome {
	k := r.Kernel
	reason := k.Run()
	log := r.log
	if len(log) > r.logCap {
		log = log[:r.logCap]
	}
	out := Outcome{Log: string(log), Fault: k.Fault(), EndTime: k.Now(), Events: k.Events()}
	switch reason {
	case StopTimeout, StopDeltas, StopEvents:
		out.TimedOut = true
		out.Log += fmt.Sprintf("SIMULATOR: run aborted (%v) at time %d\n", reason, k.Now())
	}
	if out.Fault != "" && !strings.Contains(out.Log, out.Fault) {
		out.Log += "SIMULATOR: " + out.Fault + "\n"
	}
	return out
}

// Arena hands out T storage in chunks so an elaboration performs a few
// allocations instead of one per value. The first chunk holds
// arenaFirst values and each next one twice as many, up to arenaChunk:
// a design of a handful of signals allocates a handful of slots, and a
// large one still takes values/arenaChunk allocations. Chunks are never
// grown past their capacity, so handed-out pointers stay stable.
//
// The arena keeps every chunk it has made. Reset zeroes the values
// handed out since the last Reset, and only those, and the next Allocs
// hand the same storage out again, so an arena recycled across runs
// allocates only when a run needs more values than any before it.
type Arena[T any] struct {
	first []T   // the first chunk
	more  [][]T // the chunks after it
	cur   int   // chunk being handed out: 0 is first, i is more[i-1]
	used  int   // values handed out of chunk cur
}

const (
	arenaFirst = 8
	arenaChunk = 256
)

func (a *Arena[T]) chunk(i int) []T {
	if i == 0 {
		return a.first
	}
	return a.more[i-1]
}

// Alloc returns a pointer to a fresh zero T.
func (a *Arena[T]) Alloc() *T {
	if a.first == nil {
		a.first = make([]T, arenaFirst)
	}
	c := a.chunk(a.cur)
	if a.used == len(c) {
		a.cur++
		a.used = 0
		if a.cur > len(a.more) {
			a.more = append(a.more, make([]T, min(2*len(c), arenaChunk)))
		}
		c = a.more[a.cur-1]
	}
	a.used++
	return &c[a.used-1]
}

// Each calls fn on every value handed out since the last Reset, in the
// order Alloc handed them out.
func (a *Arena[T]) Each(fn func(*T)) {
	for i := 0; i <= a.cur; i++ {
		c := a.chunk(i)
		if i == a.cur {
			c = c[:a.used]
		}
		for j := range c {
			fn(&c[j])
		}
	}
}

// Reset zeroes every value handed out since the last Reset and rewinds
// the arena to its first chunk. Values still referenced from outside
// the arena are zeroed under their holders, so a caller resets an arena
// only once nothing it handed out is in use.
func (a *Arena[T]) Reset() {
	for i := 0; i < a.cur; i++ {
		clear(a.chunk(i))
	}
	clear(a.chunk(a.cur)[:a.used])
	a.cur, a.used = 0, 0
}

// Maps hands out maps that are recycled across runs the way an Arena
// recycles values: the n-th Get after a Reset returns the map the n-th
// Get before it returned, emptied. Go's clear costs what a map has
// held at its largest, not what it holds, so Reset drops a map that
// holds under a quarter of its peak instead of clearing it; emptying
// the maps then costs at most a constant times what the last run put
// in them.
type Maps[K comparable, V any] struct {
	slots []mapSlot[K, V]
	used  int
}

type mapSlot[K comparable, V any] struct {
	m    map[K]V
	peak int // most entries m has held at a Reset
}

// Get returns an empty map, with room for hint entries when it has to
// make one.
func (p *Maps[K, V]) Get(hint int) map[K]V {
	if p.slots == nil {
		p.slots = make([]mapSlot[K, V], 0, arenaFirst)
	}
	if p.used == len(p.slots) {
		p.slots = append(p.slots, mapSlot[K, V]{})
	}
	sl := &p.slots[p.used]
	p.used++
	if sl.m == nil {
		sl.m = make(map[K]V, hint)
	}
	return sl.m
}

// Reset empties every map handed out since the last Reset.
func (p *Maps[K, V]) Reset() {
	for i := range p.slots[:p.used] {
		sl := &p.slots[i]
		n := len(sl.m)
		sl.peak = max(sl.peak, n)
		if 4*n < sl.peak {
			*sl = mapSlot[K, V]{}
			continue
		}
		clear(sl.m)
	}
	p.used = 0
}

// DeclIndexToBit maps a declared index (e.g. 5 in x[5]) of a signal
// declared with bounds msb and lsb to its storage bit offset, honouring
// descending (msb >= lsb) and ascending ranges. ok is false when the
// index is out of the declared range.
func DeclIndexToBit(msb, lsb, idx int) (bit int, ok bool) {
	if msb >= lsb {
		if idx < lsb || idx > msb {
			return 0, false
		}
		return idx - lsb, true
	}
	if idx < msb || idx > lsb {
		return 0, false
	}
	return lsb - idx, true
}
