package agents

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/llm"
)

// oracleDiagLine is the regexp the Review Agent parsed compile logs
// with before its line scanner; it stays here as the scanner's oracle.
var oracleDiagLine = regexp.MustCompile(`^(ERROR|WARNING): \[([A-Z]+ [0-9-]+)\] (.*) \[([^\[\]:]+):(\d+)\]$`)

// OracleParseCompileLog is the regexp-based ParseCompileLog the line
// scanner replaced, kept verbatim as its oracle (exported to the
// package's external tests).
func OracleParseCompileLog(log string) *llm.Feedback {
	fb := &llm.Feedback{Kind: llm.SyntaxFeedback, Raw: log}
	lines := strings.Split(log, "\n")
	for i := 0; i < len(lines); i++ {
		m := oracleDiagLine.FindStringSubmatch(strings.TrimSpace(lines[i]))
		if m == nil || m[1] != "ERROR" {
			continue
		}
		line, _ := strconv.Atoi(m[5])
		item := llm.FeedbackItem{
			Line:    line,
			Message: m[3],
			Hint:    hintFor(m[2], m[3]),
		}
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "    ") {
			item.Snippet = strings.TrimSpace(lines[i+1])
		}
		fb.Items = append(fb.Items, item)
	}
	return fb
}

// checkAgainstOracle fails t unless ParseCompileLog and the regexp
// oracle read log into the same feedback, and returns it.
func checkAgainstOracle(t *testing.T, log string) *llm.Feedback {
	t.Helper()
	got, want := ReviewAgent{}.ParseCompileLog(log), OracleParseCompileLog(log)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseCompileLog(%q)\n got %+v\nwant %+v", log, got.Items, want.Items)
	}
	return got
}

// compileLogCases are hand-written edge cases around the ERROR line's
// grammar; each one is also a FuzzParseCompileLog seed.
var compileLogCases = []string{
	"",
	"\n",
	"INFO: [xvlog] Compilation started\n" +
		"ERROR: [VRFC 10-91] \"ghost\" is not declared [design.v:2]\n" +
		"      assign y = a & ghost;\n" +
		"Total syntax errors: 1\n" +
		"INFO: [xvlog] Compilation failed with 1 error(s)\n",
	// Brackets inside the message, and a message that is all brackets.
	"ERROR: [VRFC 10-1] syntax error near \"[\"; expecting ']' [design.v:7]\n",
	"ERROR: [VRFC 10-1] index x[3] out of range [0:1] [design.v:12]\n",
	"ERROR: [VRFC 10-1] [] [tb.v:3]\n",
	// An empty message, and no message at all.
	"ERROR: [VRFC 10-1]  [design.v:4]\n",
	"ERROR: [VRFC 10-1] [design.v:4]\n",
	// Line numbers that are not decimal digits.
	"ERROR: [VRFC 10-1] bad [design.v:x1]\n",
	"ERROR: [VRFC 10-1] bad [design.v:]\n",
	"ERROR: [VRFC 10-1] bad [design.v:-3]\n",
	"ERROR: [VRFC 10-1] bad [design.v:٣]\n",
	"ERROR: [VRFC 10-1] huge [design.v:99999999999999999999999]\n",
	// A ':' or a bracket in the file, an empty file, a missing colon.
	"ERROR: [VRFC 10-1] bad [c:design.v:3]\n",
	"ERROR: [VRFC 10-1] bad [des]ign.v:3]\n",
	"ERROR: [VRFC 10-1] bad [:3]\n",
	"ERROR: [VRFC 10-1] bad [design.v 3]\n",
	"ERROR: [VRFC 10-1] bad[design.v:3]\n",
	"ERROR: [VRFC 10-1] bad [design.v:3] \n",
	"ERROR: [VRFC 10-1] bad [design.v:3]]\n",
	// Malformed codes.
	"ERROR: [vrfc 10-1] bad [design.v:3]\n",
	"ERROR: [VRFC  10-1] bad [design.v:3]\n",
	"ERROR: [VRFC 10-1a] bad [design.v:3]\n",
	"ERROR: [VRFC] bad [design.v:3]\n",
	"ERROR: [ 10-1] bad [design.v:3]\n",
	"ERROR: [VRFC 10-1]bad [design.v:3]\n",
	"ERROR: [VRFC 10-1] [VRFC 10-2] twice [design.v:3]\n",
	// WARNING lines are skipped, so are lines that only look like errors.
	"WARNING: [VRFC 10-3] unused [design.v:5]\n",
	"ERROR:[VRFC 10-1] bad [design.v:3]\n",
	"error: [VRFC 10-1] bad [design.v:3]\n",
	"  \tERROR: [VRFC 10-1] indented [design.v:3]  \r\n",
	// Snippet lines: attached only when indented by four spaces, and only
	// to the line right above them.
	"ERROR: [VRFC 10-1] a [design.v:1]\n    snippet one\nERROR: [VRFC 10-1] b [design.v:2]\n   three spaces\n",
	"ERROR: [VRFC 10-1] a [design.v:1]\n\n    detached\n",
	"ERROR: [VRFC 10-1] a [design.v:1]\n    ERROR: [VRFC 10-1] b [design.v:2]\n    tail",
	"ERROR: [VRFC 10-1] last [design.v:9]",
	// Invalid UTF-8 and multi-byte text in each field.
	"ERROR: [VRFC 10-1] caf\xc3\xa9 \xff [d\xffesign.v:3]\n",
	"ERROR: [VRFC 10-1] x [\xc3[design.v:3]\n",
}

func TestParseCompileLogEdgeCases(t *testing.T) {
	items := 0
	for _, log := range compileLogCases {
		items += len(checkAgainstOracle(t, log).Items)
	}
	if items == 0 {
		t.Fatal("no edge case parses to an item")
	}
}

// FuzzParseCompileLog checks the line scanner against the regexp
// oracle on arbitrary logs.
func FuzzParseCompileLog(f *testing.F) {
	for _, log := range compileLogCases {
		f.Add(log)
	}
	f.Fuzz(func(t *testing.T, log string) {
		checkAgainstOracle(t, log)
	})
}
