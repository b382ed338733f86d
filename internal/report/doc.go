// Package report renders experiment results into the paper's tables
// and figures, plus the reproduction's own diagnostics. Everything is
// plain monospace text written for terminals and diffs — stable
// layouts, fixed column widths — so two runs can be compared with
// nothing fancier than diff(1).
//
// Paper artefacts: Table1 (pass-rate summary with ΔF), Table2
// (state-of-the-art comparison merging cited literature rows from
// internal/baseline with our measured rows), Fig3 (latency breakdown
// per optimization loop and convergence cycles), Ablation (E4), and
// IterSweep (E5).
//
// Beyond the paper: CategoryTable breaks pass@1F down per problem
// category, and Manifest summarises what the orchestration layer
// (internal/runner) did on an invocation — cells executed vs served
// from cache, and wall-clock.
package report
