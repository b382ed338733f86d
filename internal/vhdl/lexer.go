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
}

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
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '-' && lx.peekByte(1) == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

var vhdlOps = []string{
	"<=", ">=", "/=", ":=", "=>", "**",
	"=", "<", ">", "+", "-", "*", "/", "&",
	"(", ")", ",", ";", ":", "'", ".", "|",
}

// Next returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}
	}
	r := lx.peek()
	switch {
	case unicode.IsLetter(r):
		return lx.lexIdentOrBitStr(start)
	case unicode.IsDigit(r):
		return lx.lexNumber(start)
	case r == '"':
		return lx.lexStringOrBitStr(start, 'b')
	case r == '\'':
		// Character literal 'x' only when a printable char is followed
		// by a closing quote; otherwise it is the attribute tick.
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
	// Operators are ASCII without newlines, so a match advances bytes
	// and columns alike.
	rest := lx.src[lx.pos:]
	for _, op := range vhdlOps {
		if strings.HasPrefix(rest, op) {
			lx.pos += len(op)
			lx.col += len(op)
			return Token{Kind: TokOp, Text: op, Pos: start}
		}
	}
	from := lx.pos
	lx.advance()
	return Token{Kind: TokError, Text: lx.text(from, lx.pos), Pos: start}
}

// lexIdentOrBitStr lexes an identifier/keyword, lower-cased, or a based
// bit string such as x"AF" / b"1010".
func (lx *Lexer) lexIdentOrBitStr(start Pos) Token {
	from := lx.pos
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			break
		}
		lx.advance()
	}
	// ToLower returns already-lower text as is, without copying.
	text := strings.ToLower(lx.src[from:lx.pos])
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
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '"' {
			body := lx.text(from, lx.pos)
			lx.advance()
			if kind == 'x' || kind == 'o' {
				return Token{Kind: TokBitStr, Text: string(kind) + ":" + body, Pos: start}
			}
			if isBitBody(body) {
				return Token{Kind: TokBitStr, Text: "b:" + body, Pos: start}
			}
			return Token{Kind: TokString, Text: body, Pos: start}
		}
		if c == '\n' {
			break
		}
		lx.advance()
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
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
	for lx.pos < len(lx.src) && (unicode.IsDigit(lx.peek()) || lx.src[lx.pos] == '_') {
		lx.advance()
	}
	// ReplaceAll returns text without '_' as is, without copying.
	return Token{Kind: TokInt, Text: strings.ReplaceAll(lx.src[from:lx.pos], "_", ""), Pos: start}
}
