package diag

import (
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Severity: Error, Code: "VRFC 10-91",
		File: "design.v", Line: 12, Message: `"x" is not declared`,
	}
	s := d.String()
	if !strings.Contains(s, "ERROR: [VRFC 10-91]") {
		t.Errorf("format: %s", s)
	}
	if !strings.Contains(s, "[design.v:12]") {
		t.Errorf("location: %s", s)
	}
}

func TestDiagnosticStringNoLine(t *testing.T) {
	d := Diagnostic{Severity: Warning, Code: "X", File: "f.v", Message: "m"}
	if !strings.Contains(d.String(), "[f.v]") {
		t.Errorf("no-line format: %s", d.String())
	}
}

func TestListHelpers(t *testing.T) {
	var l List
	l.Errorf("C1", "a.v", 3, 1, "bad %s", "thing")
	l.Warnf("C2", "a.v", 1, 1, "meh")
	if !l.HasErrors() || l.ErrorCount() != 1 {
		t.Errorf("counts: %d", l.ErrorCount())
	}
	if len(l) != 2 {
		t.Fatalf("len = %d", len(l))
	}
	if l[0].Message != "bad thing" {
		t.Errorf("message: %q", l[0].Message)
	}
}

func TestSortedOrder(t *testing.T) {
	var l List
	l.Errorf("C", "b.v", 5, 1, "third")
	l.Errorf("C", "a.v", 9, 1, "second")
	l.Errorf("C", "a.v", 2, 1, "first")
	s := l.Sorted()
	if s[0].Message != "first" || s[1].Message != "second" || s[2].Message != "third" {
		t.Errorf("order: %v", s)
	}
	// Original untouched.
	if l[0].Message != "third" {
		t.Error("Sorted must not mutate the receiver")
	}
}

func TestAttachSnippets(t *testing.T) {
	src := "line one\n  line two  \nline three"
	var l List
	l.Errorf("C", "f.v", 2, 1, "m")
	l.AttachSnippets(src)
	if l[0].Snippet != "  line two" {
		t.Errorf("snippet = %q", l[0].Snippet)
	}
	// Out-of-range lines are left alone.
	var l2 List
	l2.Errorf("C", "f.v", 99, 1, "m")
	l2.AttachSnippets(src)
	if l2[0].Snippet != "" {
		t.Errorf("oob snippet = %q", l2[0].Snippet)
	}
}

// TestAttachSnippetsCap: a line over MaxSnippet bytes is cut on a rune
// boundary at or below the cap, then trimmed; an invalid UTF-8 run is
// cut too.
func TestAttachSnippetsCap(t *testing.T) {
	for _, c := range []struct {
		name, line string
		want       int // snippet length
	}{
		{"ascii", strings.Repeat("x", 1000), MaxSnippet},
		{"two-byte runes", "a" + strings.Repeat("é", 500), MaxSnippet - 1},
		{"four-byte runes", "ab" + strings.Repeat("😀", 200), MaxSnippet - 2},
		{"blanks at the cut", strings.Repeat("x", MaxSnippet-2) + strings.Repeat(" ", 100) + "y", MaxSnippet - 2},
		{"invalid run", strings.Repeat("\x80", 1000), MaxSnippet},
		{"at the cap", strings.Repeat("x", MaxSnippet), MaxSnippet},
	} {
		var l List
		l.Errorf("C", "f.v", 2, 1, "m")
		l.AttachSnippets("first\n" + c.line + "\nlast")
		got := l[0].Snippet
		if len(got) != c.want || !strings.HasPrefix(c.line, got) {
			t.Errorf("%s: %d-byte snippet, want the line's first %d bytes", c.name, len(got), c.want)
		}
		if utf8.ValidString(c.line) && !utf8.ValidString(got) {
			t.Errorf("%s: snippet cut inside a rune", c.name)
		}
	}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "INFO" || Warning.String() != "WARNING" || Error.String() != "ERROR" {
		t.Error("severity strings")
	}
}

// splitSnippets is the old AttachSnippets, which split the whole
// source; TestAttachSnippetsOracle holds the line walk to it.
func splitSnippets(l List, src string) {
	lines := strings.Split(src, "\n")
	for i := range l {
		if l[i].Line >= 1 && l[i].Line <= len(lines) && l[i].Snippet == "" {
			l[i].Snippet = strings.TrimRight(lines[l[i].Line-1], " \t")
		}
	}
}

// TestAttachSnippetsOracle checks the line walk against splitSnippets
// on line 0, lines past the end, a trailing newline, CRLF, trailing
// tabs, repeated and unordered lines and a preset snippet.
func TestAttachSnippetsOracle(t *testing.T) {
	srcs := []string{
		"", "\n", "one", "one\n", "one\ntwo", "one\ntwo\n",
		"a\r\nb \t\r\nc\t\t\n\n  d  \t",
		"x\t\n\ty \t \n\n\nlast",
	}
	lineSets := [][]int{
		{0}, {1}, {2}, {3}, {4}, {5}, {6}, {99}, {-1},
		{3, 1, 2}, {2, 2, 1}, {0, 5, 1, 7, 4}, {6, 5, 4, 3, 2, 1, 0},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 2},
	}
	for _, src := range srcs {
		for _, lines := range lineSets {
			for _, preset := range []bool{false, true} {
				var got, want List
				for k, n := range lines {
					d := Diagnostic{Line: n, Message: "m"}
					if preset && k == 0 {
						d.Snippet = "kept"
					}
					got = append(got, d)
					want = append(want, d)
				}
				got.AttachSnippets(src)
				splitSnippets(want, src)
				for i := range want {
					if got[i].Snippet != want[i].Snippet {
						t.Errorf("src %q lines %v: diag %d snippet %q, want %q",
							src, lines, i, got[i].Snippet, want[i].Snippet)
					}
				}
			}
		}
	}
}

// TestSortedShortListNotCopied checks that lists of 0 or 1 entries come
// back as they are, and that a longer list is still sorted in a copy.
func TestSortedShortListNotCopied(t *testing.T) {
	if got := List(nil).Sorted(); got != nil {
		t.Errorf("nil list sorted to %v", got)
	}
	one := List{{File: "a.v", Line: 1}}
	if got := one.Sorted(); &got[0] != &one[0] {
		t.Error("one-entry list was copied")
	}
	two := List{{File: "b.v"}, {File: "a.v"}}
	if got := two.Sorted(); &got[0] == &two[0] || got[0].File != "a.v" || two[0].File != "b.v" {
		t.Errorf("two-entry list: sorted %v, receiver %v", got, two)
	}
}

// fmtString is the old fmt-based Diagnostic.String;
// TestDiagnosticStringOracle holds the append-built form to it.
func fmtString(d Diagnostic) string {
	loc := d.File
	if d.Line > 0 {
		loc = fmt.Sprintf("%s:%d", d.File, d.Line)
	}
	return fmt.Sprintf("%s: [%s] %s [%s]", d.Severity, d.Code, d.Message, loc)
}

func TestDiagnosticStringOracle(t *testing.T) {
	for _, d := range []Diagnostic{
		{},
		{Severity: Error, Code: "VRFC 10-91", File: "design.v", Line: 12, Message: `"x" is not declared`},
		{Severity: Warning, Code: "VRFC 10-2", File: "tb.vhd", Line: -3, Message: "m"},
		{Severity: Info, File: "f.v", Line: 1234567890123, Message: "% 100%d %s", Snippet: "s"},
		{Severity: Severity(7), Code: "é", File: "", Line: 1, Message: "\n"},
	} {
		if got, want := d.String(), fmtString(d); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if n := d.RenderLen(); n < len(d.String()) {
			t.Errorf("RenderLen() = %d, below len(String()) = %d", n, len(d.String()))
		}
	}
}

// TestAttachSnippetsAllocs checks that attaching snippets for a few
// diagnostics allocates nothing: each snippet is a substring of src.
func TestAttachSnippetsAllocs(t *testing.T) {
	src := strings.Repeat("  assign y = a & b;  \n", 500)
	l := make(List, 3)
	if n := testing.AllocsPerRun(100, func() {
		for i := range l {
			l[i] = Diagnostic{Line: 400 - 100*i}
		}
		l.AttachSnippets(src)
	}); n != 0 {
		t.Errorf("AttachSnippets allocated %v times per run", n)
	}
	if l[0].Snippet != "  assign y = a & b;" {
		t.Errorf("snippet = %q", l[0].Snippet)
	}
}
