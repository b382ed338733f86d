package lex

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Cursor walks a source string by byte offset and decodes UTF-8 only at
// non-ASCII bytes, so a lexer built on it is linear in the input and
// its token texts can be substrings of the source. Columns count runes,
// and each invalid UTF-8 byte reads as one U+FFFD rune.
type Cursor struct {
	src  string
	off  int // byte offset into src
	line int
	col  int
}

// NewCursor returns a cursor at the start of src.
func NewCursor(src string) Cursor { return Cursor{src: src, line: 1, col: 1} }

// Done reports whether the cursor is at the end of the source.
func (c *Cursor) Done() bool { return c.off >= len(c.src) }

// Off returns the cursor's byte offset.
func (c *Cursor) Off() int { return c.off }

// Here returns the cursor's position.
func (c *Cursor) Here() Pos { return Pos{Line: int32(c.line), Col: int32(c.col)} }

// Rest returns the source from the cursor on.
func (c *Cursor) Rest() string { return c.src[c.off:] }

// Since returns the source from byte offset from up to the cursor.
func (c *Cursor) Since(from int) string { return c.src[from:c.off] }

// PeekByte returns the byte n bytes past the cursor, or 0 past the end.
// Callers compare it only with ASCII, which never occurs inside a
// multi-byte sequence.
func (c *Cursor) PeekByte(n int) byte {
	if c.off+n >= len(c.src) {
		return 0
	}
	return c.src[c.off+n]
}

// Advance consumes and returns the rune at the cursor, which must not
// be at the end.
func (c *Cursor) Advance() rune {
	if b := c.src[c.off]; b < utf8.RuneSelf {
		c.off++
		if b == '\n' {
			c.line++
			c.col = 1
		} else {
			c.col++
		}
		return rune(b)
	}
	r, w := utf8.DecodeRuneInString(c.src[c.off:])
	c.off += w
	c.col++
	return r
}

// Take consumes and returns the next n bytes, which must be ASCII and
// not newlines (an operator, say), so bytes and columns advance alike.
func (c *Cursor) Take(n int) string {
	c.off += n
	c.col += n
	return c.src[c.off-n : c.off]
}

// Text returns src[i:j] with every invalid UTF-8 byte replaced by
// U+FFFD, as decoding rune by rune reads it. Valid text (the common
// case) is returned as a substring without copying.
func (c *Cursor) Text(i, j int) string {
	s := c.src[i:j]
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// SkipSpace consumes blanks, tabs, carriage returns and newlines.
func (c *Cursor) SkipSpace() {
	for c.off < len(c.src) {
		switch c.src[c.off] {
		case ' ', '\t', '\r':
			c.col++
		case '\n':
			c.line++
			c.col = 1
		default:
			return
		}
		c.off++
	}
}

// SkipLine moves the cursor up to the next newline, or to the end of
// the source: past the body of a line comment.
func (c *Cursor) SkipLine() {
	end := len(c.src)
	if nl := strings.IndexByte(c.src[c.off:], '\n'); nl >= 0 {
		end = c.off + nl
	}
	c.SkipTo(end)
}

// SkipTo moves the cursor to byte offset end, counting the lines and
// runes in between as Advance would.
func (c *Cursor) SkipTo(end int) {
	span := c.src[c.off:end]
	if nl := strings.LastIndexByte(span, '\n'); nl >= 0 {
		c.line += strings.Count(span, "\n")
		c.col = 1
		span = span[nl+1:]
	}
	c.col += utf8.RuneCountInString(span)
	c.off = end
}

// Byte classes in a Class table: a member of a run, and an upper-case
// member that case folding changes.
const (
	member = 1 << iota
	upper
)

// Class defines the runes a Scan run may hold: the ASCII bytes marked
// in a table, and the non-ASCII runes for which a predicate reports
// true.
type Class struct {
	ascii [utf8.RuneSelf]uint8
	uni   func(rune) bool
}

// NewClass returns the class of the ASCII bytes in the given inclusive
// ranges (pairs of bounds) and the non-ASCII runes that satisfy uni. A
// class must not hold '\n'.
func NewClass(uni func(rune) bool, ranges ...byte) *Class {
	cls := &Class{uni: uni}
	for i := 0; i+1 < len(ranges); i += 2 {
		for b := ranges[i]; b <= ranges[i+1]; b++ {
			cls.ascii[b] = member
			if 'A' <= b && b <= 'Z' {
				cls.ascii[b] |= upper
			}
		}
	}
	return cls
}

// LetterOrDigit reports whether r is a Unicode letter or digit.
func LetterOrDigit(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// AnyRune reports true for every rune.
func AnyRune(rune) bool { return true }

// Scan advances the cursor over a run of runes in cls, which contains
// no newline. An invalid UTF-8 byte decodes as U+FFFD and counts as one
// rune, as Advance reads it. fold reports whether the run holds an
// upper-case ASCII letter or any non-ASCII rune, the only runs that
// strings.ToLower can change.
func (c *Cursor) Scan(cls *Class) (fold bool) {
	i, col := c.off, c.col
	var seen uint8
	for i < len(c.src) {
		if b := c.src[i]; b < utf8.RuneSelf {
			k := cls.ascii[b]
			if k == 0 {
				break
			}
			seen |= k
			i++
		} else {
			r, w := utf8.DecodeRuneInString(c.src[i:])
			if !cls.uni(r) {
				break
			}
			seen |= upper
			i += w
		}
		col++
	}
	c.off, c.col = i, col
	return seen&upper != 0
}
