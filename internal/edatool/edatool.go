// Package edatool wraps the Verilog and VHDL front-ends and simulators
// behind compiler/simulator facades that produce Vivado-flavoured logs.
// These logs are the interface between the EDA substrate and the agents:
// the Review Agent parses compile logs, the Verification Agent parses
// simulation logs, exactly as AIVRIL 2 does with xvlog/xvhdl/xsim.
package edatool

import (
	"fmt"
	"strings"

	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// Language selects the HDL being processed.
type Language int

// Supported languages.
const (
	Verilog Language = iota
	VHDL
)

func (l Language) String() string {
	if l == Verilog {
		return "Verilog"
	}
	return "VHDL"
}

// Source is one named HDL source file.
type Source struct {
	Name string
	Text string
}

// PassMarker is the exact testbench success string the whole framework
// keys on, as in the paper's example testbench prompt.
const PassMarker = "All tests passed successfully!"

// CompileResult is the outcome of a compile run.
type CompileResult struct {
	OK    bool
	Diags diag.List
	Log   string

	// Verilog artefacts (nil for VHDL runs).
	Modules map[string]*verilog.Module
	// VHDL artefacts (nil for Verilog runs).
	Units []*vhdl.DesignFile
}

// RenderCompileLog renders diagnostics the way xvlog/xvhdl would.
func RenderCompileLog(lang Language, diags diag.List) string {
	tool := "xvlog"
	if lang == VHDL {
		tool = "xvhdl"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INFO: [%s] Compilation started\n", tool)
	errs := 0
	for _, d := range diags.Sorted() {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
		if d.Snippet != "" {
			fmt.Fprintf(&sb, "    %s\n", strings.TrimSpace(d.Snippet))
		}
		if d.Severity == diag.Error {
			errs++
		}
	}
	fmt.Fprintf(&sb, "Total syntax errors: %d\n", errs)
	if errs == 0 {
		sb.WriteString("Successful compilation.\n")
	} else {
		fmt.Fprintf(&sb, "INFO: [%s] Compilation failed with %d error(s)\n", tool, errs)
	}
	return sb.String()
}

// SimResult is the outcome of a simulation run.
type SimResult struct {
	Log          string
	Passed       bool // pass marker seen and nothing failed
	Failed       bool // explicit test failure observed
	TimedOut     bool
	Fault        string
	VCD          string           // Verilog waveform dump when the bench ran $dumpvars
	Backend      sim.BackendStats // how the simulation executed (compiled vs interpreted)
	LatencyModel float64          // EDA wall-clock estimate in seconds (events-based)
}

// latencyFromTime converts simulated time into the activity-dependent
// part of the wall-clock estimate for the latency model (Fig. 3).
func latencyFromTime(t sim.Time) float64 {
	return float64(t) * 2e-4
}

// judgeLog decides pass/fail from the simulation output, the same way
// the framework's Verification Agent (and the paper's harness) does:
// the pass marker must appear and no failure indicators may.
func judgeLog(r *SimResult) bool {
	if r.Failed || r.TimedOut || r.Fault != "" {
		return false
	}
	log := r.Log
	if !strings.Contains(log, PassMarker) {
		return false
	}
	for _, bad := range []string{"Failed", "FAIL", "Error:", "ERROR", "Failure:", "FATAL"} {
		if strings.Contains(log, bad) {
			return false
		}
	}
	return true
}
