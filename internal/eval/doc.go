// Package eval holds the arithmetic behind the paper's pass rates.
// The paper reports pass@1 in two judgements: pass@1S (the artefact
// compiles) and pass@1F (the artefact passes the suite's reference
// testbench — never the self-generated one). With the reproduction's
// deterministic LLM layer each cell is a single sample, so pass@1 is
// the pass fraction c/n over the suite (Rate).
//
// The package is arithmetic only — the judgements themselves live in
// internal/core (EvaluateSyntaxWith, EvaluateFunctionalWith) and are
// aggregated by internal/exp.
package eval
