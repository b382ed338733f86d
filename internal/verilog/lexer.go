package verilog

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/lex"
)

// Lexer turns Verilog source text into tokens. It never fails hard:
// malformed input yields TokError tokens so the parser can report
// compiler-style diagnostics with positions. It walks the source with a
// lex.Cursor, so lexing is linear in the input and columns count runes.
type Lexer struct {
	lex.Cursor
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// compiler directives (`timescale etc., treated as line comments).
func (lx *Lexer) skipSpaceAndComments() {
	for {
		lx.SkipSpace()
		switch c := lx.PeekByte(0); {
		case c == '/' && lx.PeekByte(1) == '/', c == '`':
			lx.SkipLine()
		case c == '/' && lx.PeekByte(1) == '*':
			rest := lx.Rest()
			n := len(rest)
			if i := strings.Index(rest[2:], "*/"); i >= 0 {
				n = 2 + i + 2
			}
			lx.SkipTo(lx.Off() + n)
		default:
			return
		}
	}
}

var (
	// identBytes continue an identifier: letters, digits, _ and $.
	identBytes = lex.NewClass(lex.LetterOrDigit, 'a', 'z', 'A', 'Z', '0', '9', '_', '_', '$', '$')
	// sysNameBytes continue a system task name: letters, digits and _.
	sysNameBytes = lex.NewClass(lex.LetterOrDigit, 'a', 'z', 'A', 'Z', '0', '9', '_', '_')
	// escapedBytes make up an escaped identifier: all but white space.
	escapedBytes = lex.NewClass(func(r rune) bool { return !unicode.IsSpace(r) },
		0, '\t'-1, '\r'+1, ' '-1, ' '+1, utf8.RuneSelf-1)
	// decimalBytes make up a size or a plain decimal: digits and _.
	decimalBytes = lex.NewClass(unicode.IsDigit, '0', '9', '_', '_')
	// numDigitBytes make up the digits of a based literal.
	numDigitBytes = lex.NewClass(unicode.IsDigit, '0', '9', '_', '_', '?', '?', 'a', 'f', 'A', 'F',
		'x', 'x', 'X', 'X', 'z', 'z', 'Z', 'Z')
	// stringBytes run on in a string body: all but '"', '\\' and
	// newline.
	stringBytes = lex.NewClass(lex.AnyRune, 0, '\n'-1, '\n'+1, '"'-1, '"'+1, '\\'-1, '\\'+1, utf8.RuneSelf-1)
)

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
func (lx *Lexer) Next() lex.Token {
	lx.skipSpaceAndComments()
	start := lx.Here()
	if lx.Done() {
		return lex.Token{Kind: lex.EOF, Pos: start}
	}
	if c := lx.PeekByte(0); c < utf8.RuneSelf {
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
		if n := opLen(lx.Rest()); n > 0 {
			return lex.Token{Kind: TokOp, Text: lx.Take(n), Pos: start}
		}
	} else if r, _ := utf8.DecodeRuneInString(lx.Rest()); unicode.IsLetter(r) {
		return lx.lexIdent(start)
	} else if unicode.IsDigit(r) {
		return lx.lexNumber(start)
	}
	from := lx.Off()
	lx.Advance()
	return lex.Token{Kind: TokError, Text: lx.Text(from, lx.Off()), Pos: start}
}

// lexString lexes a double-quoted string, decoding \n, \t and \<c>
// escapes. Only a string with escapes is rebuilt; any other is a
// substring of the source.
func (lx *Lexer) lexString(start lex.Pos) lex.Token {
	lx.Advance() // opening quote
	// sb stays empty until an escape; then it holds the text up to from.
	var sb strings.Builder
	from := lx.Off()
	for !lx.Done() {
		c := lx.PeekByte(0)
		if c == '"' {
			body := lx.Text(from, lx.Off())
			lx.Advance()
			if sb.Len() > 0 {
				sb.WriteString(body)
				body = sb.String()
			}
			return lex.Token{Kind: TokString, Text: body, Pos: start}
		}
		if c == '\n' {
			break
		}
		if c == '\\' && lx.PeekByte(1) != 0 {
			sb.WriteString(lx.Text(from, lx.Off()))
			lx.Advance()
			switch esc := lx.Advance(); esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			default:
				sb.WriteRune(esc)
			}
			from = lx.Off()
			continue
		}
		lx.Advance()
		lx.Scan(stringBytes)
	}
	return lex.Token{Kind: TokError, Text: "unterminated string", Pos: start}
}

func (lx *Lexer) lexSysName(start lex.Pos) lex.Token {
	from := lx.Off()
	lx.Take(1) // $
	lx.Scan(sysNameBytes)
	if lx.Off()-from == 1 {
		return lex.Token{Kind: TokError, Text: "$", Pos: start}
	}
	return lex.Token{Kind: TokSysName, Text: lx.Since(from), Pos: start}
}

func (lx *Lexer) lexIdent(start lex.Pos) lex.Token {
	if lx.PeekByte(0) == '\\' { // escaped identifier: up to whitespace
		lx.Advance()
		from := lx.Off()
		lx.Scan(escapedBytes)
		return lex.Token{Kind: lex.Ident, Text: lx.Text(from, lx.Off()), Pos: start}
	}
	from := lx.Off()
	lx.Scan(identBytes)
	text := lx.Since(from)
	if IsKeyword(text) {
		return lex.Token{Kind: lex.Keyword, Text: text, Pos: start}
	}
	return lex.Token{Kind: lex.Ident, Text: text, Pos: start}
}

// lexNumber consumes integers, sized literals (8'hFF), and base-only
// literals ('d3). A size followed by ' merges into one TokNumber.
func (lx *Lexer) lexNumber(start lex.Pos) lex.Token {
	from := lx.Off()
	// Leading decimal digits (size or plain value).
	lx.Scan(decimalBytes)
	digits := lx.Cursor
	// Skip whitespace between size and ' (legal in Verilog).
	for c := lx.PeekByte(0); c == ' ' || c == '\t'; c = lx.PeekByte(0) {
		lx.Take(1)
	}
	if lx.PeekByte(0) == '\'' {
		tick := lx.Off()
		lx.Advance() // '
		// Optional signed marker.
		if c := lx.PeekByte(0); c == 's' || c == 'S' {
			lx.Advance()
		}
		// Base char.
		kind := TokError
		if isBaseChar(lx.PeekByte(0)) {
			kind = TokNumber
			lx.Advance()
			lx.Scan(numDigitBytes)
		}
		// `16 'd12` reads as 16'd12: only a spaced size is rebuilt.
		text := lx.Since(from)
		if tick != digits.Off() {
			text = digits.Since(from) + lx.Since(tick)
		}
		return lex.Token{Kind: kind, Text: text, Pos: start}
	}
	// No tick: back up to the end of the digits and emit the plain
	// decimal. Next enters here only at a digit or a tick, so at least
	// one digit was consumed.
	lx.Cursor = digits
	return lex.Token{Kind: TokNumber, Text: lx.Since(from), Pos: start}
}

func isBaseChar(c byte) bool {
	switch c {
	case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
		return true
	}
	return false
}
