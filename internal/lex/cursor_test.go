package lex

import (
	"strings"
	"testing"
)

// recount returns the position of byte offset off in src, counted
// without the cursor: one line per newline before off, then one column
// per rune since the last of them, where ranging over a string reads
// each invalid UTF-8 byte as one U+FFFD rune.
func recount(src string, off int) Pos {
	p := Pos{Line: 1, Col: 1}
	for _, r := range src[:off] {
		if r == '\n' {
			p.Line++
			p.Col = 1
		} else {
			p.Col++
		}
	}
	return p
}

var (
	identClass  = NewClass(LetterOrDigit, 'a', 'z', 'A', 'Z', '0', '9', '_', '_')
	stringClass = NewClass(AnyRune, 0, '\n'-1, '\n'+1, '"'-1, '"'+1, 0x7f)
)

// step applies the cursor operation that op selects, the way the HDL
// lexers use them: each lands on a rune boundary.
func step(c *Cursor, op byte) {
	switch op % 7 {
	case 0:
		c.Advance()
	case 1:
		c.Scan(identClass)
	case 2:
		c.Scan(stringClass)
	case 3:
		c.SkipSpace()
	case 4:
		c.SkipLine()
	case 5: // a block comment: up to and past the next "*/", or to the end
		rest := c.Rest()
		n := len(rest)
		if i := strings.Index(rest, "*/"); i >= 0 {
			n = i + 2
		}
		c.SkipTo(c.Off() + n)
	case 6: // an operator: a few ASCII bytes that are not newlines
		n := 0
		for n < int(op/7)%4 && c.PeekByte(n) != 0 && c.PeekByte(n) < 0x80 && c.PeekByte(n) != '\n' {
			n++
		}
		c.Take(n)
	}
}

// FuzzCursor runs any sequence of cursor operations over arbitrary
// bytes, then advances rune by rune to the end. After every step the
// cursor's line and column must equal a recount of the source up to
// its offset, and the offset must never move backwards. The committed
// seeds in testdata/fuzz/FuzzCursor hold CRLF line ends, NUL bytes,
// multi-byte letters, lone continuation bytes, an unterminated /* and a
// trailing -- comment without a newline.
func FuzzCursor(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		c := NewCursor(src)
		last := 0
		check := func(what string) {
			t.Helper()
			if c.Off() < last || c.Off() > len(src) {
				t.Fatalf("after %s: offset %d, previous %d, length %d", what, c.Off(), last, len(src))
			}
			last = c.Off()
			if want := recount(src, c.Off()); c.Here() != want {
				t.Fatalf("after %s at offset %d of %q: at %v, recount %v", what, c.Off(), src, c.Here(), want)
			}
			if c.Done() != (c.Off() == len(src)) {
				t.Fatalf("after %s: Done %v at offset %d of %d", what, c.Done(), c.Off(), len(src))
			}
		}
		for _, op := range ops {
			if c.Done() {
				break
			}
			step(&c, op)
			check("op " + string('0'+rune(op%7)))
		}
		for !c.Done() {
			c.Advance()
			check("Advance")
		}
	})
}

// TestScanFold checks Scan's fold flag: set by an upper-case ASCII
// letter or any non-ASCII rune in the run, and only by those.
func TestScanFold(t *testing.T) {
	for _, c := range []struct {
		src  string
		run  string
		fold bool
	}{
		{"abc_1 x", "abc_1", false},
		{"aBc+", "aBc", true},
		{"añb-", "añb", true},
		{"ab\xffc", "ab", false},
		{"", "", false},
	} {
		cur := NewCursor(c.src)
		fold := cur.Scan(identClass)
		if got := cur.Since(0); got != c.run || fold != c.fold {
			t.Errorf("Scan(%q) = %q, fold %v; want %q, fold %v", c.src, got, fold, c.run, c.fold)
		}
	}
}

// TestText checks that Text returns valid text as is and reads each
// invalid byte as one U+FFFD.
func TestText(t *testing.T) {
	c := NewCursor("é\xffx\xc3")
	if got := c.Text(0, 2); got != "é" {
		t.Errorf("Text(0, 2) = %q", got)
	}
	if got := c.Text(2, 5); got != "�x�" {
		t.Errorf("Text(2, 5) = %q", got)
	}
}
