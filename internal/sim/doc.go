// Package sim implements the language-neutral event-driven simulation
// kernel shared by the Verilog (vsim) and VHDL (vhdlsim) interpreters.
// Each HDL has one execution path: every process runs on its
// front-end's 4-state AST interpreter, so nothing selects or reports an
// execution backend (BackendStats survives only as a zero-valued shim;
// see backend.go).
//
// The kernel follows the stratified event model of IEEE 1364: each
// time slot runs active events to exhaustion, then applies
// nonblocking-assignment (NBA) updates, repeating delta cycles until
// the slot is quiescent before advancing simulated time. Every
// simulation runs on exactly one Kernel, whose Run is the whole event
// loop; nothing in this package starts a goroutine.
//
// Processes are continuations, not coroutines: a Process is an
// explicit state value (the front-end keeps a program counter and a
// hand-rolled frame stack) whose step function the kernel dispatches
// as a plain function call. A step runs the process to its next
// suspension point — a delay or an event-control wait — arranges its
// own reactivation, and returns. No goroutines or channels are
// involved anywhere on the hot path, which removes two scheduler
// crossings per process step and makes suspended process state an
// inspectable value rather than a blocked stack. Simulation remains
// fully deterministic — a property the experiment layer leans on
// (cached and resumed sweeps must reproduce in-memory results bit for
// bit) — and is pinned by the front-ends' determinism tests.
//
// The kernel knows nothing about HDL syntax. Front-ends elaborate
// their ASTs into nets, processes, and sensitivity lists; the kernel
// owns time, the event queues, and value propagation (4-state logic
// from internal/hdl). Testbench constructs ($display-style checks,
// $finish) surface as log lines and stop conditions that
// internal/edatool shapes into tool-flavoured output.
package sim
