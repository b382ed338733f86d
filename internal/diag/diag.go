package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warning:
		return "WARNING"
	default:
		return "ERROR"
	}
}

// Diagnostic is one compiler or simulator message with a location.
type Diagnostic struct {
	Severity Severity
	Code     string // tool message id, e.g. "VRFC 10-91"
	File     string
	Line     int
	Col      int
	Message  string
	Snippet  string // the offending source line, if available
}

// String renders the diagnostic in Vivado xvlog/xvhdl style:
// ERROR: [VRFC 10-91] sample.v:12 ...
func (d Diagnostic) String() string {
	loc := d.File
	if d.Line > 0 {
		loc = fmt.Sprintf("%s:%d", d.File, d.Line)
	}
	return fmt.Sprintf("%s: [%s] %s [%s]", d.Severity, d.Code, d.Message, loc)
}

// List is a collection of diagnostics with convenience helpers.
type List []Diagnostic

// Add appends a diagnostic.
func (l *List) Add(d Diagnostic) { *l = append(*l, d) }

// Errorf appends an Error-severity diagnostic.
func (l *List) Errorf(code, file string, line, col int, format string, args ...any) {
	l.Add(Diagnostic{
		Severity: Error, Code: code, File: file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...),
	})
}

// Warnf appends a Warning-severity diagnostic.
func (l *List) Warnf(code, file string, line, col int, format string, args ...any) {
	l.Add(Diagnostic{
		Severity: Warning, Code: code, File: file, Line: line, Col: col,
		Message: fmt.Sprintf(format, args...),
	})
}

// ErrorCount returns the number of Error-severity entries.
func (l List) ErrorCount() int {
	n := 0
	for _, d := range l {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// HasErrors reports whether any entry is an error.
func (l List) HasErrors() bool { return l.ErrorCount() > 0 }

// Sorted returns a copy ordered by (file, line, col, severity desc).
func (l List) Sorted() List {
	out := make(List, len(l))
	copy(out, l)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Severity > b.Severity
	})
	return out
}

// AttachSnippets fills the Snippet field of each diagnostic from src,
// which is the full source text the diagnostics refer to. An empty list
// returns at once, without splitting src.
func (l List) AttachSnippets(src string) {
	if len(l) == 0 {
		return
	}
	lines := strings.Split(src, "\n")
	for i := range l {
		if l[i].Line >= 1 && l[i].Line <= len(lines) && l[i].Snippet == "" {
			l[i].Snippet = strings.TrimRight(lines[l[i].Line-1], " \t")
		}
	}
}
