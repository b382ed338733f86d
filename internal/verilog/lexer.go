package verilog

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns Verilog source text into tokens. It never fails hard:
// malformed input yields TokError tokens so the parser can report
// compiler-style diagnostics with positions.
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

// Tokens lexes the entire input, always ending with a TokEOF token.
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

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// compiler directives (`timescale etc., treated as line comments).
func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekByte(1) == '/', c == '`':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekByte(1) == '*':
			lx.advance()
			lx.advance()
			for lx.pos < len(lx.src) {
				if lx.src[lx.pos] == '*' && lx.peekByte(1) == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

// multi-rune operators, longest first.
var operators = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~^", "^~", "~&", "~|", "**",
	"+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "@", "#", ".",
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
	case r == '"':
		return lx.lexString(start)
	case r == '$':
		return lx.lexSysName(start)
	case unicode.IsLetter(r) || r == '_' || r == '\\':
		return lx.lexIdent(start)
	case unicode.IsDigit(r) || r == '\'':
		return lx.lexNumber(start)
	}
	// Operators and punctuation. All are ASCII without newlines, so a
	// match advances bytes and columns alike.
	rest := lx.src[lx.pos:]
	for _, op := range operators {
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

// lexString lexes a double-quoted string, decoding \n, \t and \<c>
// escapes. Only a string with escapes is rebuilt; any other is a
// substring of the source.
func (lx *Lexer) lexString(start Pos) Token {
	lx.advance() // opening quote
	// sb stays empty until an escape; then it holds the text up to from.
	var sb strings.Builder
	from := lx.pos
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '"' {
			body := lx.text(from, lx.pos)
			lx.advance()
			if sb.Len() > 0 {
				sb.WriteString(body)
				body = sb.String()
			}
			return Token{Kind: TokString, Text: body, Pos: start}
		}
		if c == '\n' {
			break
		}
		if c == '\\' && lx.peekByte(1) != 0 {
			sb.WriteString(lx.text(from, lx.pos))
			lx.advance()
			switch esc := lx.advance(); esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteRune(esc)
			}
			from = lx.pos
			continue
		}
		lx.advance()
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

func (lx *Lexer) lexSysName(start Pos) Token {
	from := lx.pos
	lx.advance() // $
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			lx.advance()
		} else {
			break
		}
	}
	if lx.pos-from == 1 {
		return Token{Kind: TokError, Text: "$", Pos: start}
	}
	return Token{Kind: TokSysName, Text: lx.src[from:lx.pos], Pos: start}
}

func (lx *Lexer) lexIdent(start Pos) Token {
	if lx.src[lx.pos] == '\\' { // escaped identifier: up to whitespace
		lx.advance()
		from := lx.pos
		for lx.pos < len(lx.src) && !unicode.IsSpace(lx.peek()) {
			lx.advance()
		}
		return Token{Kind: TokIdent, Text: lx.text(from, lx.pos), Pos: start}
	}
	from := lx.pos
	for lx.pos < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' {
			lx.advance()
		} else {
			break
		}
	}
	text := lx.src[from:lx.pos]
	if IsKeyword(text) {
		return Token{Kind: TokKeyword, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// lexNumber consumes integers, sized literals (8'hFF), and base-only
// literals ('d3). A size followed by ' merges into one TokNumber.
func (lx *Lexer) lexNumber(start Pos) Token {
	from := lx.pos
	// Leading decimal digits (size or plain value).
	for lx.pos < len(lx.src) && (unicode.IsDigit(lx.peek()) || lx.src[lx.pos] == '_') {
		lx.advance()
	}
	digitsEnd := lx.pos
	// Skip whitespace between size and ' (legal in Verilog).
	saveLine, saveCol := lx.line, lx.col
	for lx.pos < len(lx.src) && (lx.src[lx.pos] == ' ' || lx.src[lx.pos] == '\t') {
		lx.advance()
	}
	if lx.peek() == '\'' {
		tick := lx.pos
		lx.advance() // '
		// Optional signed marker.
		if lx.peek() == 's' || lx.peek() == 'S' {
			lx.advance()
		}
		// Base char.
		kind := TokError
		if isBaseChar(lx.peek()) {
			kind = TokNumber
			lx.advance()
			for lx.pos < len(lx.src) && isNumDigit(lx.peek()) {
				lx.advance()
			}
		}
		// `16 'd12` reads as 16'd12: only a spaced size is rebuilt.
		text := lx.src[from:lx.pos]
		if tick != digitsEnd {
			text = lx.src[from:digitsEnd] + lx.src[tick:lx.pos]
		}
		return Token{Kind: kind, Text: text, Pos: start}
	}
	// No tick: restore and emit the plain decimal. Next enters here only
	// at a digit or a tick, so at least one digit was consumed.
	lx.pos, lx.line, lx.col = digitsEnd, saveLine, saveCol
	return Token{Kind: TokNumber, Text: lx.src[from:digitsEnd], Pos: start}
}

func isBaseChar(r rune) bool {
	switch r {
	case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
		return true
	}
	return false
}

func isNumDigit(r rune) bool {
	return unicode.IsDigit(r) || r == '_' || r == '?' ||
		(r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F') ||
		r == 'x' || r == 'X' || r == 'z' || r == 'Z'
}
