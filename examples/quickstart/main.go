// Quickstart: run the AIVRIL 2 pipeline on one benchmark problem and
// print the verdicts. This is the smallest end-to-end use of the public
// pipeline API: resolve a cell, then evaluate it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/exp"
)

func main() {
	cell, err := exp.RemoteCell{Problem: "counter_up_w4", Model: "claude-3.5-sonnet"}.Resolve(bench.NewSuite())
	if err != nil {
		log.Fatal(err)
	}
	out, res, err := exp.Evaluate(context.Background(), cell, cell.Config, nil, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("problem          : %s\n", cell.Problem.ID)
	fmt.Printf("spec             : %s\n", cell.Problem.Spec)
	fmt.Printf("syntax converged : %v (%d iterations)\n", res.SyntaxOK, res.SyntaxIters)
	fmt.Printf("self-verified    : %v (%d iterations)\n", res.SelfVerified, res.FuncIters)
	fmt.Printf("reference bench  : %v\n", out.LoopFuncOK)
	fmt.Printf("\nfinal RTL:\n%s\n", res.FinalRTL)
}
