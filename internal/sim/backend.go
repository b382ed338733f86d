package sim

import "fmt"

// Backend selection seam. The kernel schedules opaque process
// continuations (Process.stepFn), so compiled and interpreted processes
// already coexist in one event loop: a "compiled" process is simply a
// process whose step closure runs specialized straight-line code
// instead of walking an AST. This file contributes the shared
// vocabulary for choosing and reporting that execution strategy. Only
// vhdlsim has a compiled backend, selectable through
// edatool.Options.Mode; vsim always interprets and reports its runs
// with BackendStats under the "interpret" label. Every CLI and
// pipeline runs the default (auto); forcing the interpreter is a test
// seam for the differential harness.
//
// The backend is strictly output-neutral: for any mode, logs, VCD and
// final values are byte-identical (pinned by the differential
// harnesses). Only speed and the BackendStats counters may differ.

// BackendMode selects how behavioural processes execute.
type BackendMode uint8

const (
	// BackendAuto lets the front-end choose per process: two-state
	// eligible processes are specialized into flat closures over uint64
	// words, with automatic per-activation fallback to the interpreter
	// on X/Z values; ineligible processes (wide vectors, delays,
	// unsupported constructs) stay interpreted.
	BackendAuto BackendMode = iota
	// BackendInterpret forces the 4-state AST interpreter for every
	// process.
	BackendInterpret
)

// Compiled reports whether this mode enables the compiled fast path.
func (m BackendMode) Compiled() bool { return m != BackendInterpret }

func (m BackendMode) String() string {
	switch m {
	case BackendAuto:
		return "auto"
	case BackendInterpret:
		return "interpret"
	}
	return fmt.Sprintf("backend(%d)", uint8(m))
}

// Label is the name of the strategy a run executed under, as
// reported in BackendStats.Mode: "compiled" when the fast path was
// enabled, "interpret" otherwise.
func (m BackendMode) Label() string {
	if m.Compiled() {
		return "compiled"
	}
	return "interpret"
}

// BackendStats reports how one simulation run executed: how many
// behavioural processes and continuous assignments were bound to the
// compiled fast path vs the interpreter, and how many compiled
// activations deferred to the interpreter because a guarded input
// carried X/Z at activation time. The counts are deterministic
// (classification is static per design; fallbacks are per-activation).
type BackendStats struct {
	Mode               string // resolved mode the run executed under
	CompiledProcs      int    // processes bound to compiled programs
	InterpretedProcs   int    // processes bound to the AST interpreter
	CompiledAssigns    int    // continuous assignments bound compiled
	InterpretedAssigns int    // continuous assignments bound interpreted
	Fallbacks          uint64 // compiled activations run by the interpreter (X/Z guard)
}

// Add accumulates o into s (summing runs; Mode keeps the first
// non-empty label and degrades to "mixed" on disagreement, as in any
// sweep over both HDLs under auto: Verilog runs are labelled
// "interpret", VHDL runs "compiled").
func (s *BackendStats) Add(o BackendStats) {
	if s.Mode == "" {
		s.Mode = o.Mode
	} else if o.Mode != "" && o.Mode != s.Mode {
		s.Mode = "mixed"
	}
	s.CompiledProcs += o.CompiledProcs
	s.InterpretedProcs += o.InterpretedProcs
	s.CompiledAssigns += o.CompiledAssigns
	s.InterpretedAssigns += o.InterpretedAssigns
	s.Fallbacks += o.Fallbacks
}
