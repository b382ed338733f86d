package sim

import (
	"fmt"
	"strings"

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
// runtime error in malformed RTL; Recover and ProcRecover turn it into
// the run's fault instead of a crash.
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
// needs no locks.
type Runtime struct {
	Kernel *Kernel
	File   string

	log         []byte
	logCap      int
	steps       uint64 // interpreter statement budget spent
	budgetFault string
}

// NewRuntime returns the shell of one run under opts on a fresh
// kernel. defaultFile names the testbench when opts.File is empty, and
// budgetFault is the fault text Tick raises once the statement budget
// is spent.
func NewRuntime(opts Options, defaultFile, budgetFault string) Runtime {
	k := NewKernel()
	if opts.MaxTime != 0 {
		k.MaxTime = opts.MaxTime
	}
	if opts.File == "" {
		opts.File = defaultFile
	}
	if opts.MaxOutput == 0 {
		opts.MaxOutput = 1 << 20
	}
	return Runtime{Kernel: k, File: opts.File, logCap: opts.MaxOutput, budgetFault: budgetFault}
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
// watcher registration), records a Fault panic as the run's fault and
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

// ProcRecover, deferred in a process step, records a Fault panic as the
// run's fault and unwinds the process cleanly: the kernel's dispatch
// boundary treats the TerminateProcess re-panic as a clean termination.
// Any other panic reaches that boundary unchanged and is recorded there
// as a simulation fatal in the process.
func (r *Runtime) ProcRecover() {
	if v := recover(); v != nil {
		if f, ok := v.(Fault); ok {
			r.Kernel.SetFault(f.Msg)
			panic(TerminateProcess{})
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
// grown past their capacity, so handed-out pointers stay stable;
// retiring a full chunk just drops the arena's reference (the values
// keep it alive).
type Arena[T any] struct {
	chunk []T
}

const (
	arenaFirst = 8
	arenaChunk = 256
)

// Alloc returns a pointer to a fresh zero T.
func (a *Arena[T]) Alloc() *T {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]T, 0, min(max(2*cap(a.chunk), arenaFirst), arenaChunk))
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
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
