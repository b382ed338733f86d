package diag

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
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
// ERROR: [VRFC 10-91] message [sample.v:12]
func (d Diagnostic) String() string {
	var sb strings.Builder
	sb.Grow(d.RenderLen())
	d.Append(&sb)
	return sb.String()
}

// RenderLen bounds the length of the String form from above.
func (d Diagnostic) RenderLen() int {
	return len("WARNING: [] ") + len(d.Code) + len(d.Message) + len(" [:]") + len(d.File) + 20
}

// Append writes the String form of d to sb.
func (d Diagnostic) Append(sb *strings.Builder) {
	sb.WriteString(d.Severity.String())
	sb.WriteString(": [")
	sb.WriteString(d.Code)
	sb.WriteString("] ")
	sb.WriteString(d.Message)
	sb.WriteString(" [")
	sb.WriteString(d.File)
	if d.Line > 0 {
		var buf [20]byte
		sb.WriteByte(':')
		sb.Write(strconv.AppendInt(buf[:0], int64(d.Line), 10))
	}
	sb.WriteByte(']')
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

// Sorted returns the list ordered by (file, line, col, severity desc),
// keeping the order of equal entries. A list of two or more entries is
// sorted in a copy; a shorter one is already in order and is returned
// as is.
func (l List) Sorted() List {
	if len(l) < 2 {
		return l
	}
	out := slices.Clone(l)
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Line, b.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Col, b.Col); c != 0 {
			return c
		}
		return cmp.Compare(b.Severity, a.Severity)
	})
	return out
}

// MaxSnippet bounds a snippet in bytes, so what a diagnostic adds to a
// compile log is bounded too, however long its source line is.
const MaxSnippet = 256

// AttachSnippets fills the Snippet field of each diagnostic from src,
// which is the full source text the diagnostics refer to, with its
// line cut to at most MaxSnippet bytes on a rune boundary and trimmed
// of trailing blanks and tabs. Diagnostics that already
// have a snippet, or whose line is not in src, are left alone. Only the
// lines up to the last one named are scanned, in one forward walk.
func (l List) AttachSnippets(src string) {
	var buf [8]int
	want := buf[:0] // indices into l, walked in line order
	for i := range l {
		if l[i].Line >= 1 && l[i].Snippet == "" {
			want = append(want, i)
		}
	}
	if len(want) > 1 {
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(l[a].Line, l[b].Line) })
	}
	line, start := 1, 0 // line begins at byte offset start
	for _, i := range want {
		for ; line < l[i].Line; line++ {
			nl := strings.IndexByte(src[start:], '\n')
			if nl < 0 {
				return // this line and every later one are past the end
			}
			start += nl + 1
		}
		text := src[start:]
		if nl := strings.IndexByte(text, '\n'); nl >= 0 {
			text = text[:nl]
		}
		if len(text) > MaxSnippet {
			text = cutRunes(text, MaxSnippet)
		}
		l[i].Snippet = strings.TrimRight(text, " \t")
	}
}

// cutRunes returns the longest prefix of s of at most n bytes that ends
// on a rune boundary; as in the lexers, each invalid byte is a rune.
func cutRunes(s string, n int) string {
	for i := n - 1; i >= 0 && i > n-utf8.UTFMax; i-- {
		if utf8.RuneStart(s[i]) {
			if _, size := utf8.DecodeRuneInString(s[i:]); i+size > n {
				return s[:i]
			}
			break
		}
	}
	return s[:n]
}
