package vhdl

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/lex"
)

// Lexer tokenises VHDL source. Like the Verilog lexer it never fails:
// malformed constructs yield TokError tokens for the parser to report.
// It walks the source with a lex.Cursor, so lexing is linear in the
// input and columns count runes.
type Lexer struct {
	lex.Cursor

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

// skipSpaceAndComments consumes whitespace and -- comments.
func (lx *Lexer) skipSpaceAndComments() {
	for {
		lx.SkipSpace()
		if lx.PeekByte(0) != '-' || lx.PeekByte(1) != '-' {
			return
		}
		lx.SkipLine()
	}
}

var (
	// identBytes continue an identifier: letters, digits and _.
	identBytes = lex.NewClass(lex.LetterOrDigit, 'a', 'z', 'A', 'Z', '0', '9', '_', '_')
	// intBytes make up an integer literal: digits and _.
	intBytes = lex.NewClass(unicode.IsDigit, '0', '9', '_', '_')
	// stringBytes make up a string body: all but '"' and newline.
	stringBytes = lex.NewClass(lex.AnyRune, 0, '\n'-1, '\n'+1, '"'-1, '"'+1, utf8.RuneSelf-1)
)

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
func (lx *Lexer) Next() lex.Token {
	lx.skipSpaceAndComments()
	start := lx.Here()
	if lx.Done() {
		return lex.Token{Kind: lex.EOF, Pos: start}
	}
	if c := lx.PeekByte(0); c < utf8.RuneSelf {
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
			if lx.PeekByte(1) != 0 {
				_, w := utf8.DecodeRuneInString(lx.Rest()[1:])
				if lx.PeekByte(1+w) == '\'' {
					lx.Advance()
					from := lx.Off()
					lx.Advance()
					text := lx.Text(from, lx.Off())
					lx.Advance()
					return lex.Token{Kind: TokChar, Text: text, Pos: start}
				}
			}
		}
		// Operators are ASCII without newlines, so a match advances
		// bytes and columns alike.
		if n := opLen(lx.Rest()); n > 0 {
			return lex.Token{Kind: TokOp, Text: lx.Take(n), Pos: start}
		}
	} else if r, _ := utf8.DecodeRuneInString(lx.Rest()); unicode.IsLetter(r) {
		return lx.lexIdentOrBitStr(start)
	} else if unicode.IsDigit(r) {
		return lx.lexNumber(start)
	}
	from := lx.Off()
	lx.Advance()
	return lex.Token{Kind: TokError, Text: lx.Text(from, lx.Off()), Pos: start}
}

// lexIdentOrBitStr lexes an identifier/keyword, lower-cased, or a based
// bit string such as x"AF" / b"1010".
func (lx *Lexer) lexIdentOrBitStr(start lex.Pos) lex.Token {
	from := lx.Off()
	fold := lx.Scan(identBytes)
	text := lx.Since(from)
	if fold {
		text = strings.ToLower(text)
	}
	if (text == "x" || text == "b" || text == "o") && lx.PeekByte(0) == '"' {
		return lx.lexStringOrBitStr(start, text[0])
	}
	if IsKeyword(text) {
		return lex.Token{Kind: lex.Keyword, Text: text, Pos: start}
	}
	return lex.Token{Kind: lex.Ident, Text: text, Pos: start}
}

// lexStringOrBitStr lexes a double-quoted literal. kind 'b' (default)
// marks a binary bit-string when the content is all 01xz_-; otherwise
// the token is a plain string. kind 'x'/'o' forces based interpretation.
func (lx *Lexer) lexStringOrBitStr(start lex.Pos, kind byte) lex.Token {
	lx.Advance() // opening quote
	from := lx.Off()
	lx.Scan(stringBytes)
	if lx.PeekByte(0) == '"' {
		body := lx.Text(from, lx.Off())
		lx.Advance()
		if kind == 'x' || kind == 'o' || isBitBody(body) {
			return lex.Token{Kind: TokBitStr, Text: lx.bitStrText(kind, body), Pos: start}
		}
		return lex.Token{Kind: TokString, Text: body, Pos: start}
	}
	return lex.Token{Kind: TokError, Text: "unterminated string", Pos: start}
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

func (lx *Lexer) lexNumber(start lex.Pos) lex.Token {
	from := lx.Off()
	lx.Scan(intBytes)
	// ReplaceAll returns text without '_' as is, without copying.
	return lex.Token{Kind: TokInt, Text: strings.ReplaceAll(lx.Since(from), "_", ""), Pos: start}
}
