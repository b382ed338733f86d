// Package agents implements the three LLM-based agents of AIVRIL 2.
//
// The Code Agent wraps the model session and produces testbenches and
// candidate RTL. The Review Agent runs the compiler and distills its raw
// log into a syntax corrective prompt. The Verification Agent runs the
// simulator against the frozen self-generated testbench and distills the
// simulation log into a functional corrective prompt.
//
// Both reviewer agents parse the *textual* tool logs — the same artefact
// the paper's agents receive — so feedback quality genuinely depends on
// log parsing fidelity.
package agents

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/lex"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

// CodeAgent is the single source of generated code in the pipeline.
// It speaks to the model through the provider layer, so every call can
// fail with a classified error once the provider's faults outlast the
// retry budget.
type CodeAgent struct {
	Session provider.Session

	// req is reused across calls: the middleware chain treats requests
	// as read-only, and reuse keeps the steady-state path allocation-free.
	req provider.Request
}

// NewCodeAgent opens a provider session for one problem/language task.
func NewCodeAgent(p provider.Provider, prob *bench.Problem, lang edatool.Language) (*CodeAgent, error) {
	s, err := p.NewSession(llm.GenRequest{Problem: prob, Language: lang})
	if err != nil {
		return nil, err
	}
	return &CodeAgent{Session: s}, nil
}

// GenerateTestbench asks the model for the self-verification testbench.
func (a *CodeAgent) GenerateTestbench(ctx context.Context) (string, float64, error) {
	a.req = provider.Request{Op: provider.OpGenerateTestbench}
	resp, err := a.Session.Do(ctx, &a.req)
	return resp.Code, resp.Latency, err
}

// RepairTestbench regenerates the testbench from syntax feedback.
func (a *CodeAgent) RepairTestbench(ctx context.Context, fb *llm.Feedback) (string, float64, error) {
	a.req = provider.Request{Op: provider.OpRepairTestbench, Feedback: fb}
	resp, err := a.Session.Do(ctx, &a.req)
	return resp.Code, resp.Latency, err
}

// GenerateRTL asks the model for candidate RTL (nil feedback = zero-shot).
func (a *CodeAgent) GenerateRTL(ctx context.Context, fb *llm.Feedback) (string, float64, error) {
	a.req = provider.Request{Op: provider.OpGenerateRTL, Feedback: fb}
	resp, err := a.Session.Do(ctx, &a.req)
	return resp.Code, resp.Latency, err
}

// AnalysisLatency models the Review/Verification agent's own LLM call
// for a corrective prompt with the given number of findings.
func (a *CodeAgent) AnalysisLatency(ctx context.Context, kind llm.FeedbackKind, items int) (float64, error) {
	a.req = provider.Request{Op: provider.OpAnalysis, Kind: kind, Items: items}
	resp, err := a.Session.Do(ctx, &a.req)
	return resp.Latency, err
}

// ---------------------------------------------------------------- review

// ReviewAgent supervises the Syntax Optimization loop.
type ReviewAgent struct{}

// ParseCompileLog converts a raw compiler log into a structured syntax
// corrective prompt. Snippet lines (indented, following a diagnostic)
// are attached to the preceding item.
func (ReviewAgent) ParseCompileLog(log string) *llm.Feedback {
	fb := &llm.Feedback{Kind: llm.SyntaxFeedback, Raw: log}
	for rest := log; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		code, msg, lineNo, ok := parseErrorLine(strings.TrimSpace(line))
		if !ok {
			continue
		}
		n, _ := strconv.Atoi(lineNo)
		item := llm.FeedbackItem{
			Line:    n,
			Message: msg,
			Hint:    hintFor(code, msg),
		}
		if next, _, _ := strings.Cut(rest, "\n"); strings.HasPrefix(next, "    ") {
			item.Snippet = strings.TrimSpace(next)
		}
		fb.Items = append(fb.Items, item)
	}
	return fb
}

// parseErrorLine splits one Vivado-style ERROR line emitted by edatool,
// e.g.
//
//	ERROR: [VRFC 10-91] "x" is not declared [design.v:12]
//
// into its code ("VRFC 10-91"), message and line number. The code is
// upper-case letters, a space and digits or hyphens; the location is
// the line's last bracket, a non-empty file name without ':' or
// brackets, a colon and decimal digits. The message is everything
// between, brackets included, and may be empty. Any other line
// (WARNING and INFO lines, snippets, summaries) reports ok false.
func parseErrorLine(s string) (code, msg, lineNo string, ok bool) {
	rest, ok := strings.CutPrefix(s, "ERROR: [")
	if !ok {
		return "", "", "", false
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 || !validCode(rest[:end]) || !strings.HasPrefix(rest[end:], "] ") {
		return "", "", "", false
	}
	code, rest = rest[:end], rest[end+2:]
	open := strings.LastIndexByte(rest, '[')
	if open < 1 || rest[open-1] != ' ' || !strings.HasSuffix(rest, "]") {
		return "", "", "", false
	}
	file, lineNo, ok := strings.Cut(rest[open+1:len(rest)-1], ":")
	if !ok || file == "" || strings.IndexByte(file, ']') >= 0 || !allDigits(lineNo) {
		return "", "", "", false
	}
	return code, rest[:open-1], lineNo, true
}

// validCode reports whether s is a diagnostic code: one or more
// upper-case ASCII letters, a space, then one or more digits or '-'.
func validCode(s string) bool {
	letters, tail, ok := strings.Cut(s, " ")
	if !ok || letters == "" || tail == "" {
		return false
	}
	for i := 0; i < len(letters); i++ {
		if letters[i] < 'A' || letters[i] > 'Z' {
			return false
		}
	}
	for i := 0; i < len(tail); i++ {
		if c := tail[i]; c != '-' && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// allDigits reports whether s is one or more ASCII decimal digits.
func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// hintFor maps diagnostic codes to actionable correction hints, the
// "highly detailed and actionable corrective prompt" of Section 3.2.
func hintFor(code, msg string) string {
	switch {
	case code == lex.SizeCode:
		return "split the source into smaller files or remove repeated text"
	case strings.Contains(msg, "not declared"):
		return "declare the referenced signal or fix the misspelled identifier"
	case strings.Contains(msg, "expecting") && strings.Contains(msg, `";"`):
		return "missing semicolon at the end of the statement"
	case strings.Contains(msg, "endmodule"):
		return "missing or misspelled endmodule"
	case strings.Contains(msg, "missing 'end"), strings.Contains(msg, "missing matching"):
		return "unbalanced begin/end or missing end keyword"
	case strings.Contains(msg, "non-register"):
		return "declare the procedurally assigned output as 'reg'"
	case strings.Contains(msg, "':='"), strings.Contains(msg, "'<='"):
		return "use '<=' for signals and ':=' for variables"
	case strings.Contains(msg, "syntax error"):
		return "fix the syntax error near the quoted token"
	default:
		return "address the reported compiler error"
	}
}

// CorrectivePrompt renders the feedback as the natural-language prompt
// the Code Agent receives (used by transcripts and examples).
func (ReviewAgent) CorrectivePrompt(fb *llm.Feedback) string {
	if len(fb.Items) == 0 {
		return "No syntax errors were reported. The code compiles cleanly."
	}
	var sb strings.Builder
	sb.WriteString("The compiler reported the following syntax problems. Please fix each one:\n")
	for i, item := range fb.Items {
		fmt.Fprintf(&sb, "%d. line %d: %s", i+1, item.Line, item.Message)
		if item.Snippet != "" {
			fmt.Fprintf(&sb, "\n   offending code: %s", item.Snippet)
		}
		fmt.Fprintf(&sb, "\n   suggestion: %s\n", item.Hint)
	}
	return sb.String()
}

// ----------------------------------------------------------- verification

// VerificationAgent supervises the Functional Optimization loop.
type VerificationAgent struct{}

// failLine matches testbench failure output in both languages:
//
//	Test Case 7 Failed: q expected 3 got 5      (Verilog $display)
//	Error: Test Case 7 Failed: q expected 3     (VHDL assert/report)
var failLine = regexp.MustCompile(`Test Case (\d+) Failed: (.*)`)

// ParseSimLog converts a raw simulation log into a functional
// corrective prompt. Simulator aborts (timeouts, faults) become a
// single high-level item.
func (VerificationAgent) ParseSimLog(log string) *llm.Feedback {
	fb := &llm.Feedback{Kind: llm.FunctionalFeedback, Raw: log}
	for _, line := range strings.Split(log, "\n") {
		if m := failLine.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			fb.Items = append(fb.Items, llm.FeedbackItem{
				Line:    n,
				Message: strings.TrimSpace(m[0]),
				Hint:    "update the RTL so this check passes: " + strings.TrimSpace(m[2]),
			})
		}
	}
	if len(fb.Items) == 0 && !strings.Contains(log, edatool.PassMarker) {
		reason := "simulation ended without the pass marker"
		switch {
		case strings.Contains(log, "run aborted"):
			reason = "simulation did not terminate (possible missing $finish or a hung design)"
		case strings.Contains(log, "simulation fatal"), strings.Contains(log, "SIMULATOR:"):
			reason = "the simulator reported a fatal error while executing the design"
		}
		fb.Items = append(fb.Items, llm.FeedbackItem{Message: reason, Hint: reason})
	}
	return fb
}

// Passed reports whether the simulation log indicates full success.
func (VerificationAgent) Passed(log string) bool {
	if !strings.Contains(log, edatool.PassMarker) {
		return false
	}
	return !failLine.MatchString(log) &&
		!strings.Contains(log, "run aborted") &&
		!strings.Contains(log, "SIMULATOR:")
}

// CorrectivePrompt renders functional feedback for the Code Agent.
func (VerificationAgent) CorrectivePrompt(fb *llm.Feedback) string {
	if len(fb.Items) == 0 {
		return "All tests passed successfully. No functional corrections are needed."
	}
	var sb strings.Builder
	sb.WriteString("Simulation against the testbench reported failures. Please revise the RTL:\n")
	for i, item := range fb.Items {
		fmt.Fprintf(&sb, "%d. %s\n   suggestion: %s\n", i+1, item.Message, item.Hint)
	}
	return sb.String()
}
