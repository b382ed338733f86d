// Shiftreg walks through the paper's Figure 2 scenario: the shift-enable
// FSM, with the full agent transcript printed — testbench-first
// generation, the Syntax Optimization loop, and the Functional
// Optimization loop with its corrective prompts.
//
//	go run ./examples/shiftreg
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/agents"
	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
)

func main() {
	// Llama3 exhibits the most loop activity — good for a walkthrough.
	cell, err := exp.RemoteCell{Problem: "fsm_shift_ena", Model: "llama3-70b"}.Resolve(bench.NewSuite())
	if err != nil {
		log.Fatal(err)
	}
	prob := cell.Problem

	fmt.Println("=== AIVRIL 2 walkthrough: the Fig. 2 shift-enable FSM ===")
	fmt.Println()
	fmt.Println("User prompt:")
	fmt.Println(indent(prob.Spec))
	fmt.Println("\nModule header provided to the Code Agent:")
	fmt.Println(indent(prob.ModuleHeaderVerilog()))

	cfg := cell.Config
	cfg.Trace = func(stage, detail string) {
		fmt.Printf("  [%-9s] %s\n", stage, detail)
	}
	fmt.Println("\nPipeline transcript:")
	out, res, err := exp.Evaluate(context.Background(), cell, cfg, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nFrozen self-verification testbench (excerpt):")
	fmt.Println(indent(firstLines(res.Testbench, 12)))

	// Demonstrate the log artefacts the agents consume.
	comp := edatool.Compile(nil, edatool.Verilog,
		edatool.Source{Name: "design.v", Text: res.FinalRTL})
	fmt.Println("\nFinal compiler log (Review Agent input):")
	fmt.Println(indent(comp.Log))

	var review agents.ReviewAgent
	fb := review.ParseCompileLog(comp.Log)
	fmt.Println("Review Agent corrective prompt:")
	fmt.Println(indent(review.CorrectivePrompt(fb)))

	fmt.Printf("\nFinal verdicts: syntax=%v selfVerified=%v referenceBench=%v\n",
		res.SyntaxOK, res.SelfVerified, out.LoopFuncOK)
	fmt.Printf("Latency: baseline %.1fs + syntax %.1fs + functional %.1fs\n",
		res.Latency.Baseline, res.Latency.Syntax, res.Latency.Func)
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = append(lines[:n], fmt.Sprintf("... (%d more lines)", len(lines)-n))
	}
	return strings.Join(lines, "\n")
}
