package vhdl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenises VHDL source. Like the Verilog lexer it never fails:
// malformed constructs yield TokError tokens for the parser to report.
//
// The lexer walks the source string by byte offset and decodes UTF-8
// only for non-ASCII bytes, so lexing is linear in the input and token
// texts are substrings of the source wherever they spell the same
// bytes. Columns count runes, and each invalid UTF-8 byte reads as one
// U+FFFD rune.
type Lexer struct {
	src  string
	pos  int // byte offset into src
	line int
	col  int

	// texts holds the bit-string token texts, which are not substrings
	// of src ("b:" + body). Each text is appended once and never
	// rewritten, so it stays valid after texts moves on to a new chunk.
	texts strings.Builder
}

// Bit-string texts go into chunks that start small, so a design with a
// few literals allocates little, and double up to a cap, so a
// testbench's rows share a few allocations.
const (
	firstTextChunk = 64
	maxTextChunk   = 1024
)

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokens lexes all of src, ending with TokEOF.
func Tokens(src string) []Token {
	lx := NewLexer(src)
	out := make([]Token, 0, len(src)/4+1)
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == TokEOF {
			return out
		}
	}
}

// peek returns the rune at the cursor, or 0 at end of input.
func (lx *Lexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return r
}

// peekByte returns the byte n bytes past the cursor, or 0 past the end.
// Callers compare it only with ASCII, which never occurs inside a
// multi-byte sequence.
func (lx *Lexer) peekByte(n int) byte {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *Lexer) advance() rune {
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		lx.pos++
		if c == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.pos:])
	lx.pos += w
	lx.col++
	return r
}

func (lx *Lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

// text returns src[i:j] with every invalid UTF-8 byte replaced by
// U+FFFD, as decoding rune by rune reads it. Valid text (the common
// case) is returned as a substring without copying.
func (lx *Lexer) text(i, j int) string {
	s := lx.src[i:j]
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
			lx.col++
		case c == '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case c == '-' && lx.peekByte(1) == '-':
			end := len(lx.src)
			if nl := strings.IndexByte(lx.src[lx.pos:], '\n'); nl >= 0 {
				end = lx.pos + nl
			}
			lx.col += utf8.RuneCountInString(lx.src[lx.pos:end])
			lx.pos = end
		default:
			return
		}
	}
}

// Byte classes for scan: a member of the run, and an upper-case member
// that case folding changes.
const (
	member = 1 << iota
	upper
)

// asciiClasses returns the class table for the ASCII bytes in the given
// inclusive ranges (pairs of bounds). Upper-case letters get the upper
// class too.
func asciiClasses(ranges ...byte) *[utf8.RuneSelf]uint8 {
	var cls [utf8.RuneSelf]uint8
	for i := 0; i+1 < len(ranges); i += 2 {
		for c := ranges[i]; c <= ranges[i+1]; c++ {
			cls[c] = member
			if 'A' <= c && c <= 'Z' {
				cls[c] |= upper
			}
		}
	}
	return &cls
}

var (
	// identBytes continue an identifier: letters, digits and _.
	identBytes = asciiClasses('a', 'z', 'A', 'Z', '0', '9', '_', '_')
	// intBytes make up an integer literal: digits and _.
	intBytes = asciiClasses('0', '9', '_', '_')
	// stringBytes make up a string body: all but '"' and newline.
	stringBytes = asciiClasses(0, '\n'-1, '\n'+1, '"'-1, '"'+1, utf8.RuneSelf-1)
)

func isLetterOrDigit(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func anyRune(rune) bool { return true }

// scan advances the cursor over a run of runes that contains no
// newline: ASCII bytes that are members in cls, and non-ASCII runes for
// which uni reports true. An invalid UTF-8 byte decodes as U+FFFD and
// counts as one rune, as advance reads it. fold reports whether the run
// holds an upper-case ASCII letter or any non-ASCII rune, the only runs
// that strings.ToLower can change.
func (lx *Lexer) scan(cls *[utf8.RuneSelf]uint8, uni func(rune) bool) (fold bool) {
	i, col := lx.pos, lx.col
	var seen uint8
	for i < len(lx.src) {
		if c := lx.src[i]; c < utf8.RuneSelf {
			k := cls[c]
			if k == 0 {
				break
			}
			seen |= k
			i++
		} else {
			r, w := utf8.DecodeRuneInString(lx.src[i:])
			if !uni(r) {
				break
			}
			seen |= upper
			i += w
		}
		col++
	}
	lx.pos, lx.col = i, col
	return seen&upper != 0
}

// opLen returns the byte length of the longest operator or punctuation
// token at the start of s, or 0 if s starts with none. The operators
// are <= >= /= := => ** and the single bytes = < > + - * / & ( ) , ; : ' . |
func opLen(s string) int {
	if s == "" {
		return 0
	}
	var c1 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	switch s[0] {
	case '<', '>', '/', ':':
		if c1 == '=' {
			return 2 // <= >= /= :=
		}
	case '=':
		if c1 == '>' {
			return 2 // =>
		}
	case '*':
		if c1 == '*' {
			return 2 // **
		}
	case '+', '-', '&', '(', ')', ',', ';', '\'', '.', '|':
	default:
		return 0
	}
	return 1
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}
	}
	if c := lx.src[lx.pos]; c < utf8.RuneSelf {
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
			return lx.lexIdentOrBitStr(start)
		case '0' <= c && c <= '9':
			return lx.lexNumber(start)
		case c == '"':
			return lx.lexStringOrBitStr(start, 'b')
		case c == '\'':
			// Character literal 'x' only when a printable char is
			// followed by a closing quote; otherwise it is the
			// attribute tick.
			if lx.peekByte(1) != 0 {
				_, w := utf8.DecodeRuneInString(lx.src[lx.pos+1:])
				if lx.peekByte(1+w) == '\'' {
					lx.advance()
					from := lx.pos
					lx.advance()
					text := lx.text(from, lx.pos)
					lx.advance()
					return Token{Kind: TokChar, Text: text, Pos: start}
				}
			}
		}
		// Operators are ASCII without newlines, so a match advances
		// bytes and columns alike.
		if n := opLen(lx.src[lx.pos:]); n > 0 {
			text := lx.src[lx.pos : lx.pos+n]
			lx.pos += n
			lx.col += n
			return Token{Kind: TokOp, Text: text, Pos: start}
		}
	} else if r := lx.peek(); unicode.IsLetter(r) {
		return lx.lexIdentOrBitStr(start)
	} else if unicode.IsDigit(r) {
		return lx.lexNumber(start)
	}
	from := lx.pos
	lx.advance()
	return Token{Kind: TokError, Text: lx.text(from, lx.pos), Pos: start}
}

// lexIdentOrBitStr lexes an identifier/keyword, lower-cased, or a based
// bit string such as x"AF" / b"1010".
func (lx *Lexer) lexIdentOrBitStr(start Pos) Token {
	from := lx.pos
	fold := lx.scan(identBytes, isLetterOrDigit)
	text := lx.src[from:lx.pos]
	if fold {
		text = strings.ToLower(text)
	}
	if (text == "x" || text == "b" || text == "o") && lx.peek() == '"' {
		return lx.lexStringOrBitStr(start, text[0])
	}
	if IsKeyword(text) {
		return Token{Kind: TokKeyword, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// lexStringOrBitStr lexes a double-quoted literal. kind 'b' (default)
// marks a binary bit-string when the content is all 01xz_-; otherwise
// the token is a plain string. kind 'x'/'o' forces based interpretation.
func (lx *Lexer) lexStringOrBitStr(start Pos, kind byte) Token {
	lx.advance() // opening quote
	from := lx.pos
	lx.scan(stringBytes, anyRune)
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '"' {
		body := lx.text(from, lx.pos)
		lx.advance()
		if kind == 'x' || kind == 'o' || isBitBody(body) {
			return Token{Kind: TokBitStr, Text: lx.bitStrText(kind, body), Pos: start}
		}
		return Token{Kind: TokString, Text: body, Pos: start}
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

// bitStrText returns kind + ":" + body, appended to the texts chunk.
func (lx *Lexer) bitStrText(kind byte, body string) string {
	n := len(body) + 2
	if free := lx.texts.Cap() - lx.texts.Len(); free < n {
		size := min(max(2*lx.texts.Cap(), firstTextChunk), maxTextChunk)
		lx.texts = strings.Builder{}
		lx.texts.Grow(max(size, n))
	}
	from := lx.texts.Len()
	lx.texts.WriteByte(kind)
	lx.texts.WriteByte(':')
	lx.texts.WriteString(body)
	return lx.texts.String()[from:]
}

func isBitBody(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch r {
		case '0', '1', 'x', 'X', 'z', 'Z', 'u', 'U', '_', '-':
		default:
			return false
		}
	}
	return true
}

func (lx *Lexer) lexNumber(start Pos) Token {
	from := lx.pos
	lx.scan(intBytes, unicode.IsDigit)
	// ReplaceAll returns text without '_' as is, without copying.
	return Token{Kind: TokInt, Text: strings.ReplaceAll(lx.src[from:lx.pos], "_", ""), Pos: start}
}
