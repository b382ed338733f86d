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
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
			lx.col++
		case c == '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case c == '/' && lx.peekByte(1) == '/', c == '`':
			end := len(lx.src)
			if nl := strings.IndexByte(lx.src[lx.pos:], '\n'); nl >= 0 {
				end = lx.pos + nl
			}
			lx.skipTo(end)
		case c == '/' && lx.peekByte(1) == '*':
			end := len(lx.src)
			if i := strings.Index(lx.src[lx.pos+2:], "*/"); i >= 0 {
				end = lx.pos + 2 + i + 2
			}
			lx.skipTo(end)
		default:
			return
		}
	}
}

// skipTo moves the cursor to byte offset end, counting the lines and
// runes in between as advance would.
func (lx *Lexer) skipTo(end int) {
	span := lx.src[lx.pos:end]
	if nl := strings.LastIndexByte(span, '\n'); nl >= 0 {
		lx.line += strings.Count(span, "\n")
		lx.col = 1
		span = span[nl+1:]
	}
	lx.col += utf8.RuneCountInString(span)
	lx.pos = end
}

// scan advances the cursor over a run of runes that contains no
// newline: ASCII bytes marked in set, and non-ASCII runes for which uni
// reports true. An invalid UTF-8 byte decodes as U+FFFD and counts as
// one rune, as advance reads it.
func (lx *Lexer) scan(set *[utf8.RuneSelf]bool, uni func(rune) bool) {
	i, col := lx.pos, lx.col
	for i < len(lx.src) {
		if c := lx.src[i]; c < utf8.RuneSelf {
			if !set[c] {
				break
			}
			i++
		} else {
			r, w := utf8.DecodeRuneInString(lx.src[i:])
			if !uni(r) {
				break
			}
			i += w
		}
		col++
	}
	lx.pos, lx.col = i, col
}

// asciiSet returns the ASCII bytes that satisfy any of the given
// ranges; each range is a pair of inclusive bounds.
func asciiSet(ranges ...byte) *[utf8.RuneSelf]bool {
	var set [utf8.RuneSelf]bool
	for i := 0; i+1 < len(ranges); i += 2 {
		for c := ranges[i]; c <= ranges[i+1]; c++ {
			set[c] = true
		}
	}
	return &set
}

var (
	// identBytes continue an identifier: letters, digits, _ and $.
	identBytes = asciiSet('a', 'z', 'A', 'Z', '0', '9', '_', '_', '$', '$')
	// sysNameBytes continue a system task name: letters, digits and _.
	sysNameBytes = asciiSet('a', 'z', 'A', 'Z', '0', '9', '_', '_')
	// decimalBytes make up a size or a plain decimal: digits and _.
	decimalBytes = asciiSet('0', '9', '_', '_')
	// numDigitBytes make up the digits of a based literal.
	numDigitBytes = asciiSet('0', '9', '_', '_', '?', '?', 'a', 'f', 'A', 'F',
		'x', 'x', 'X', 'X', 'z', 'z', 'Z', 'Z')
	// stringBytes run on in a string body: all but '"', '\\' and
	// newline.
	stringBytes = asciiSet(0, '\n'-1, '\n'+1, '"'-1, '"'+1, '\\'-1, '\\'+1, utf8.RuneSelf-1)
)

func isLetterOrDigit(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func anyRune(rune) bool { return true }

// opLen returns the byte length of the longest operator or punctuation
// token at the start of s, or 0 if s starts with none. The operators
// are <<< >>> === !== << >> <= >= == != && || ~^ ^~ ~& ~| ** and the
// single bytes + - * / % ! ~ & | ^ < > = ( ) [ ] { } , ; : ? @ # .
func opLen(s string) int {
	if s == "" {
		return 0
	}
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch s[0] {
	case '<', '>':
		if c1 == s[0] {
			if c2 == s[0] {
				return 3 // <<< >>>
			}
			return 2 // << >>
		}
		if c1 == '=' {
			return 2 // <= >=
		}
	case '=', '!':
		if c1 == '=' {
			if c2 == '=' {
				return 3 // === !==
			}
			return 2 // == !=
		}
	case '&', '|', '*':
		if c1 == s[0] {
			return 2 // && || **
		}
	case '~':
		if c1 == '^' || c1 == '&' || c1 == '|' {
			return 2 // ~^ ~& ~|
		}
	case '^':
		if c1 == '~' {
			return 2 // ^~
		}
	case '+', '-', '/', '%', '(', ')', '[', ']', '{', '}', ',', ';', ':', '?', '@', '#', '.':
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
		case c == '"':
			return lx.lexString(start)
		case c == '$':
			return lx.lexSysName(start)
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' || c == '\\':
			return lx.lexIdent(start)
		case '0' <= c && c <= '9' || c == '\'':
			return lx.lexNumber(start)
		}
		// Operators and punctuation. All are ASCII without newlines, so
		// a match advances bytes and columns alike.
		if n := opLen(lx.src[lx.pos:]); n > 0 {
			text := lx.src[lx.pos : lx.pos+n]
			lx.pos += n
			lx.col += n
			return Token{Kind: TokOp, Text: text, Pos: start}
		}
	} else if r := lx.peek(); unicode.IsLetter(r) {
		return lx.lexIdent(start)
	} else if unicode.IsDigit(r) {
		return lx.lexNumber(start)
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
		lx.scan(stringBytes, anyRune)
	}
	return Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

func (lx *Lexer) lexSysName(start Pos) Token {
	from := lx.pos
	lx.pos++ // $
	lx.col++
	lx.scan(sysNameBytes, isLetterOrDigit)
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
	lx.scan(identBytes, isLetterOrDigit)
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
	lx.scan(decimalBytes, unicode.IsDigit)
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
			lx.scan(numDigitBytes, unicode.IsDigit)
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
