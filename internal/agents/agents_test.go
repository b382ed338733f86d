package agents

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/diag"
	"repro/internal/edatool"
	"repro/internal/lex"
	"repro/internal/llm"
	"repro/internal/llm/provider"
)

func TestParseCompileLogExtractsErrors(t *testing.T) {
	src := `module m(input a, output y);
  assign y = a & ghost;
endmodule`
	comp := edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "design.v", Text: src})
	if comp.OK {
		t.Fatal("fixture should not compile")
	}
	var review ReviewAgent
	fb := review.ParseCompileLog(comp.Log)
	if fb.Kind != llm.SyntaxFeedback {
		t.Error("wrong feedback kind")
	}
	if len(fb.Items) == 0 {
		t.Fatalf("no items parsed from log:\n%s", comp.Log)
	}
	item := fb.Items[0]
	if item.Line != 2 {
		t.Errorf("line = %d, want 2", item.Line)
	}
	if !strings.Contains(item.Message, "ghost") {
		t.Errorf("message = %q", item.Message)
	}
	if !strings.Contains(item.Snippet, "ghost") {
		t.Errorf("snippet = %q", item.Snippet)
	}
	if item.Hint == "" {
		t.Error("hint empty")
	}
}

// TestCompileLogBoundedByDiagnostics: a one-line 500,000-byte source
// with three errors renders each snippet cut to diag.MaxSnippet, so the
// log and the Review Agent's items grow with the diagnostics, not with
// the line.
func TestCompileLogBoundedByDiagnostics(t *testing.T) {
	src := "module m(input a, output y); assign y = a & b1 & b2 & b3; endmodule // "
	src += strings.Repeat("x", 500_000-len(src))
	comp := edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "big.v", Text: src})
	if n := comp.Diags.ErrorCount(); n != 3 {
		t.Fatalf("%d errors, want 3:\n%s", n, comp.Log)
	}
	if max := 3 * (diag.MaxSnippet + 200); len(comp.Log) > max {
		t.Errorf("log is %d bytes, want at most %d", len(comp.Log), max)
	}
	fb := ReviewAgent{}.ParseCompileLog(comp.Log)
	if len(fb.Items) != 3 {
		t.Fatalf("%d items, want 3:\n%s", len(fb.Items), comp.Log)
	}
	for _, it := range fb.Items {
		if it.Line != 1 || len(it.Snippet) > diag.MaxSnippet || !strings.HasPrefix(src, it.Snippet) {
			t.Errorf("item line %d, %d-byte snippet %.40q...; want line 1 and a prefix of the source of at most %d bytes",
				it.Line, len(it.Snippet), it.Snippet, diag.MaxSnippet)
		}
	}
}

func TestParseCompileLogCleanIsEmpty(t *testing.T) {
	comp := edatool.Compile(nil, edatool.Verilog,
		edatool.Source{Name: "d.v", Text: "module m(input a, output y); assign y = a; endmodule"})
	var review ReviewAgent
	fb := review.ParseCompileLog(comp.Log)
	if len(fb.Items) != 0 {
		t.Errorf("clean compile produced %d items", len(fb.Items))
	}
	if !strings.Contains(review.CorrectivePrompt(fb), "compiles cleanly") {
		t.Error("prompt for clean compile wrong")
	}
}

func TestParseCompileLogMultipleErrors(t *testing.T) {
	src := `module m(input a, output y)
  assign y = a & ghost;
  wire w
endmodule`
	comp := edatool.Compile(nil, edatool.Verilog, edatool.Source{Name: "design.v", Text: src})
	var review ReviewAgent
	fb := review.ParseCompileLog(comp.Log)
	if len(fb.Items) < 2 {
		t.Errorf("want multiple items, got %d from:\n%s", len(fb.Items), comp.Log)
	}
	prompt := review.CorrectivePrompt(fb)
	if !strings.Contains(prompt, "1.") || !strings.Contains(prompt, "2.") {
		t.Errorf("prompt not enumerated:\n%s", prompt)
	}
}

func TestParseSimLogFailures(t *testing.T) {
	log := `Test Case 2 Failed: shift_ena expected 0 got 1
Test Case 7 Failed: q expected 3 got 4
tb.v:44: $stop called at 60 (1ns)
`
	var verify VerificationAgent
	fb := verify.ParseSimLog(log)
	if fb.Kind != llm.FunctionalFeedback {
		t.Error("wrong kind")
	}
	if len(fb.Items) != 2 {
		t.Fatalf("items = %d", len(fb.Items))
	}
	if fb.Items[0].Line != 2 || fb.Items[1].Line != 7 {
		t.Errorf("case numbers: %d, %d", fb.Items[0].Line, fb.Items[1].Line)
	}
	if verify.Passed(log) {
		t.Error("failed log judged passed")
	}
}

func TestParseSimLogPassed(t *testing.T) {
	log := "All tests passed successfully!\ntb.v:53: $finish called at 60 (1ns)\n"
	var verify VerificationAgent
	if !verify.Passed(log) {
		t.Error("pass log judged failed")
	}
	fb := verify.ParseSimLog(log)
	if len(fb.Items) != 0 {
		t.Errorf("pass log produced items: %+v", fb.Items)
	}
}

func TestParseSimLogTimeout(t *testing.T) {
	log := "SIMULATOR: run aborted (timeout) at time 1000000\n"
	var verify VerificationAgent
	if verify.Passed(log) {
		t.Error("aborted sim judged passed")
	}
	fb := verify.ParseSimLog(log)
	if len(fb.Items) != 1 {
		t.Fatalf("items = %d", len(fb.Items))
	}
	if !strings.Contains(fb.Items[0].Message, "terminate") {
		t.Errorf("message = %q", fb.Items[0].Message)
	}
}

func TestParseSimLogVHDLAsserts(t *testing.T) {
	log := `Error: Test Case 3 Failed: count expected 5
Time: 41 ns  Iteration: 0  Process: line_12
`
	var verify VerificationAgent
	fb := verify.ParseSimLog(log)
	if len(fb.Items) != 1 || fb.Items[0].Line != 3 {
		t.Errorf("items = %+v", fb.Items)
	}
}

func TestCodeAgentRoundTrip(t *testing.T) {
	suite := bench.NewSuite()
	model := llm.ProfileByName("claude-3.5-sonnet")
	agent, err := NewCodeAgent(provider.NewOffline(model), suite.ByID("gate_and"), edatool.Verilog)
	if err != nil {
		t.Fatalf("NewCodeAgent: %v", err)
	}
	ctx := context.Background()
	tb, lat, err := agent.GenerateTestbench(ctx)
	if err != nil || tb == "" || lat <= 0 {
		t.Errorf("bad testbench generation: err=%v", err)
	}
	rtl, lat2, err := agent.GenerateRTL(ctx, nil)
	if err != nil || rtl == "" || lat2 <= 0 {
		t.Errorf("bad rtl generation: err=%v", err)
	}
	alat, err := agent.AnalysisLatency(ctx, llm.SyntaxFeedback, 3)
	if err != nil || alat <= 0 {
		t.Errorf("bad analysis latency: %v err=%v", alat, err)
	}
}

func TestLatencyScalesWithItems(t *testing.T) {
	suite := bench.NewSuite()
	agent, err := NewCodeAgent(provider.NewOffline(llm.ProfileByName("claude-3.5-sonnet")), suite.ByID("gate_and"), edatool.Verilog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range []llm.FeedbackKind{llm.SyntaxFeedback, llm.FunctionalFeedback} {
		small, err1 := agent.AnalysisLatency(ctx, kind, 1)
		big, err2 := agent.AnalysisLatency(ctx, kind, 10)
		if err1 != nil || err2 != nil || big <= small {
			t.Errorf("kind %v: latency %v for 10 items, %v for 1 (errors %v, %v); must grow with items", kind, big, small, err1, err2)
		}
	}
}

func TestVerificationPromptMentionsFailures(t *testing.T) {
	var verify VerificationAgent
	fb := verify.ParseSimLog("Test Case 1 Failed: y expected 1 got 0\n")
	prompt := verify.CorrectivePrompt(fb)
	if !strings.Contains(prompt, "expected 1") {
		t.Errorf("prompt lacks failure detail:\n%s", prompt)
	}
}

// TestParseCompileLogSourceSizeLimit compiles a golden design padded
// with a trailing comment to exactly lex.MaxSource bytes, which must
// compile clean, and to one byte more, which must fail with the single
// size diagnostic that the Review Agent reads back as one item.
func TestParseCompileLogSourceSizeLimit(t *testing.T) {
	p := bench.NewSuite().Problems[0]
	for _, c := range []struct {
		lang    edatool.Language
		name    string
		golden  string
		comment string
	}{
		{edatool.Verilog, "design.v", p.GoldenVerilog, "\n//"},
		{edatool.VHDL, "design.vhd", p.GoldenVHDL, "\n--"},
	} {
		head := c.golden + c.comment
		for _, size := range []int{lex.MaxSource, lex.MaxSource + 1} {
			src := head + strings.Repeat("x", size-len(head))
			comp := edatool.Compile(nil, c.lang, edatool.Source{Name: c.name, Text: src})
			fb := ReviewAgent{}.ParseCompileLog(comp.Log)
			if size == lex.MaxSource {
				if !comp.OK || len(fb.Items) != 0 {
					t.Errorf("%s at the limit: OK %v, %d items\n%s", c.name, comp.OK, len(fb.Items), comp.Log)
				}
				continue
			}
			if comp.OK || len(comp.Diags) != 1 || comp.Diags[0].Code != lex.SizeCode {
				t.Fatalf("%s over the limit: OK %v, diags %v", c.name, comp.OK, comp.Diags)
			}
			if len(fb.Items) != 1 {
				t.Fatalf("%s over the limit: %d items from\n%s", c.name, len(fb.Items), comp.Log)
			}
			want := "source is 1048577 bytes, over the 1048576-byte limit"
			if it := fb.Items[0]; it.Line != 1 || it.Message != want || !strings.HasPrefix(it.Hint, "split the source") {
				t.Errorf("%s over the limit: item %+v", c.name, it)
			}
		}
	}
}
