// Package edatool wraps the Verilog and VHDL front-ends and simulators
// behind compiler/simulator facades that produce Vivado-flavoured logs.
// These logs are the interface between the EDA substrate and the agents:
// the Review Agent parses compile logs, the Verification Agent parses
// simulation logs, exactly as AIVRIL 2 does with xvlog/xvhdl/xsim.
package edatool

import (
	"strconv"
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
const PassMarker = sim.PassMarker

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

// RenderCompileLog renders diagnostics the way xvlog/xvhdl would. The
// log is written once, into a buffer sized for it up front.
func RenderCompileLog(lang Language, diags diag.List) string {
	tool := "xvlog"
	if lang == VHDL {
		tool = "xvhdl"
	}
	size := 160 // the header and the two summary lines
	for i := range diags {
		size += diags[i].RenderLen() + len("\n    \n") + len(diags[i].Snippet)
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.WriteString("INFO: [")
	sb.WriteString(tool)
	sb.WriteString("] Compilation started\n")
	errs := 0
	for _, d := range diags.Sorted() {
		d.Append(&sb)
		sb.WriteByte('\n')
		if d.Snippet != "" {
			sb.WriteString("    ")
			sb.WriteString(strings.TrimSpace(d.Snippet))
			sb.WriteByte('\n')
		}
		if d.Severity == diag.Error {
			errs++
		}
	}
	var buf [20]byte
	n := strconv.AppendInt(buf[:0], int64(errs), 10)
	sb.WriteString("Total syntax errors: ")
	sb.Write(n)
	sb.WriteByte('\n')
	if errs == 0 {
		sb.WriteString("Successful compilation.\n")
	} else {
		sb.WriteString("INFO: [")
		sb.WriteString(tool)
		sb.WriteString("] Compilation failed with ")
		sb.Write(n)
		sb.WriteString(" error(s)\n")
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
	VCD          string  // Verilog waveform dump when the bench ran $dumpvars
	LatencyModel float64 // EDA wall-clock estimate in seconds (events-based)
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
