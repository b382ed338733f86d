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
// Processes are continuations, not coroutines. Every always block,
// initial block and VHDL process runs on one Machine (machine.go): its
// front-end lowers the body into a flat program of Ops (leaves, jumps,
// case dispatch, counted loops, delays and waits) and keeps only the
// leaf hooks, and the machine keeps the program counter and the per-op
// slots: wait registrations, loop counters, a VHDL loop variable, a
// Verilog assignment's bound targets. The kernel dispatches a step as a
// plain function call that runs the program to its next delay or wait,
// arranges its own reactivation and returns, so no goroutine or channel
// exists per process and suspended state is an inspectable value.
// Simulation remains fully deterministic — a property the experiment
// layer leans on (cached and resumed sweeps must reproduce in-memory
// results bit for bit) — and is pinned by the front-ends' determinism
// tests.
//
// Both front-ends run inside one shell, Runtime (runtime.go), which a
// Simulator embeds: the kernel, the testbench file name, the capped log
// (Logf), the statement budget (Tick) and fault handling. Interpreters
// panic with a Fault on malformed RTL; Recover and ProcRecover record it
// in the kernel's fault slot, where the first fault wins. Execute runs
// the kernel and returns the Outcome both Result types embed: the log
// cut at its cap, then one abort line for a limit stop, then one
// SIMULATOR line for the fault. Options, the elaboration bounds and
// their ElabError, the signal Arena and DeclIndexToBit are shared the
// same way; each front-end keeps only its own message texts. The Arena
// sizes its chunks to the design: the first holds 8 signals and each
// next one doubles up to 256, so a design of a few signals allocates a
// few slots.
//
// A simulation's storage outlives the run. Each front-end keeps a
// sync.Pool of workspaces, and its New is the only place one is made:
// a workspace holds the Design that Simulate and SimulateStimulus
// elaborate into (the signal and instance arenas, the binding slices,
// and the unit and instance maps) and the Simulator that runs it (the
// Runtime with its kernel queues and log buffer, the process machines
// and their programs, and vsim's target scratch). The Result copies the log, renders the VCD and captures
// the final values before the workspace goes back reset: Arena.Reset
// zeroes only the values the run took, Maps.Reset empties only the
// maps it used, and Runtime.Reset truncates the kernel's queues and the
// log and restores every counter, serial and limit to its NewKernel
// value. A reset workspace therefore keeps no pointer into an AST, a
// kernel closure or a Result, so a pooled one keeps no evicted parse
// alive, and resetting costs what the last run used. A Design built by
// Elaborate belongs to its caller and is never recycled; SimulateDesign
// borrows only a workspace's Simulator for it.
//
// The suite judge runs on the same shell (stimulus.go). Instead of a
// textual reference testbench, a front-end elaborates a judge shell —
// the testbench's declarations, the DUT instantiation and, for
// sequential designs, its clock — and StartStimulus binds a harness
// process where the textual stimulus block's process would be bound.
// The harness's continuation is data, (vector index, phase): per
// vector it drives the inputs through the front-end's Shell (Verilog
// blocking writes, VHDL delta-delayed assignments), waits one time
// unit or a rising clk edge and one time unit, and compares every
// output case-equal; at the end the Shell prints PassMarker through
// Logf and finishes the run ($finish, or done <= '1'). Each step
// charges the statement budget what the interpreter would charge the
// textual statements, and the waits use the same watch lists, so the
// run keeps the textual testbench's timeline event for event. Compile
// diagnostics, port binding, the clock, the DUT's own output, the log
// cap, limits and faults all still run through the text and the shell.
//
// The kernel knows nothing about HDL syntax. Front-ends elaborate
// their ASTs into nets, processes, and sensitivity lists; the kernel
// owns time, the event queues, and value propagation (4-state logic
// from internal/hdl). Testbench constructs ($display-style checks,
// $finish) surface as log lines and stop conditions that
// internal/edatool shapes into tool-flavoured output.
package sim
