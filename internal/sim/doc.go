// Package sim implements the language-neutral event-driven simulation
// kernel shared by the Verilog (vsim) and VHDL (vhdlsim) front-ends,
// and the one process machine and the one expression form both run on.
// Each HDL has one 4-state execution path, so nothing selects or
// reports an execution backend (BackendStats survives only as a
// zero-valued shim; see backend.go).
//
// The kernel follows the stratified event model of IEEE 1364: each
// time slot runs active events to exhaustion, then applies
// nonblocking-assignment (NBA) updates, repeating delta cycles until
// the slot is quiescent before advancing simulated time. Every
// simulation runs on exactly one Kernel, whose Run is the whole event
// loop; nothing in this package starts a goroutine. One delta cycle
// may queue at most MaxNBA updates, so a zero-delay loop that
// schedules an update on every pass ends with a fault, not a heap of
// records.
//
// A front-end lowers everything a run executes once, when the run
// starts. Every always block, initial block and VHDL process becomes a
// flat program of Ops (machine.go) that one Machine runs: leaves,
// jumps, case dispatch, counted loops, delays and waits, with only the
// leaf statements (Hooks) and case matching (Match) left to the
// front-end. Every run-time expression becomes an Expr tree
// (expr.go): names bound to the value they read, operators to their hdl
// functions, Verilog nodes sized and typed and VHDL nodes tagged
// integer or not. Runtime.Eval evaluates it with no name lookup;
// Runtime.Reads gives the signals it reads, which wait sites,
// continuous assignments and monitors watch. A Machine, like the
// stimulus harness, embeds its Process, which the kernel dispatches
// through one hook bound when it starts: a plain call that runs to the
// next delay or wait and arranges its own reactivation. A wait
// registration (wait.go) holds one watcher per watched signal, firing
// on any change or, by the IEEE 1364 edge table, on an edge of a
// sampled bit. Simulation is fully deterministic — cached and resumed
// sweeps must reproduce in-memory results bit for bit — and the
// front-ends' determinism tests pin it.
//
// Both front-ends run inside one shell, Runtime (runtime.go), which a
// Simulator embeds: the kernel, the testbench file name, the capped log
// (Logf), the statement budget (Tick), the lowered expressions and
// fault handling. Evaluation panics with a Fault on malformed RTL; a
// process's dispatch, or Recover around other work, records it in the
// kernel's fault slot, where the first fault wins. Execute runs the
// kernel and returns the Outcome both Result types embed: the log cut
// at its cap, then one abort line for a limit stop, then one SIMULATOR
// line for the fault. Options, the elaboration bounds and their
// ElabError, the signal Arena and DeclIndexToBit are shared the same
// way; each front-end keeps only its own message texts.
//
// A simulation's storage outlives the run. Each front-end keeps a
// sync.Pool of workspaces: the Design a run elaborates into and the
// Simulator that runs it, with its Runtime, kernel queues, log buffer,
// programs, lowered expressions and stimulus harness. Every piece is an
// Arena, Slab, Maps or slice that its Reset empties up to what the last
// run used and keeps for the next, so a reset workspace holds no pointer
// into an AST, a kernel closure or a Result, and a recycled run
// allocates only past the high-water mark of the runs before it. A
// Design built by Elaborate belongs to its caller and is never
// recycled; SimulateDesign borrows only a workspace's Simulator for it.
//
// The suite judge runs on the same shell (stimulus.go). Instead of a
// textual reference testbench, a front-end elaborates a judge shell —
// the testbench's declarations, the DUT instantiation and, for
// sequential designs, its clock — and StartStimulus binds a harness
// process where the textual stimulus block's process would be bound.
// Its continuation is data, (vector index, phase): per vector it drives
// the inputs through the front-end's Shell, waits one time unit or a
// rising clk edge and one time unit, and compares every output
// case-equal, charging the statement budget what the textual
// statements would cost, so the run keeps the textual testbench's
// timeline event for event. Testbench constructs ($display-style
// checks, $finish) surface as log lines and stop conditions that
// internal/edatool shapes into tool-flavoured output.
package sim
