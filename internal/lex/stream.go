package lex

import "repro/internal/diag"

// Lexer is the source of a parser's tokens. Next returns the next
// token, and an EOF token at the end of the input.
type Lexer interface{ Next() Token }

// Stream is a recursive-descent parser's view of its tokens: a
// three-token window filled from a lexer on demand (Ahead(2) is the
// deepest lookahead, and the parsers never backtrack, so no token slice
// is built), the count of tokens consumed, and the diagnostics reported
// so far. A parser embeds a Stream next to its own lexer and adds its
// grammar plus the five methods that pull tokens, each a line or two
// over Shift, Lacks and Fill: Advance, Peek, Accept, Expect and
// ExpectIdent. The parser calls its lexer itself, so the window holds
// no reference to it and a parser stays on its caller's stack.
type Stream struct {
	la    [3]Token // lookahead window: la[0] is the current token
	nla   int      // tokens held in la, 1 to 3 (0 only while a Fill is due)
	n     int      // tokens consumed so far
	file  string
	Diags diag.List
}

// Start readies s for a source of size bytes named file in
// diagnostics. It reports whether the source may be lexed; the parser
// then Fills the first token. A source over MaxSource bytes is not
// lexed: s reports one error and starts at EOF.
func (s *Stream) Start(file string, size int) bool {
	*s = Stream{file: file}
	if size > MaxSource {
		pos := Pos{Line: 1, Col: 1}
		s.Errorf(pos, SizeCode, "source is %d bytes, over the %d-byte limit", size, MaxSource)
		s.Fill(Token{Kind: EOF, Pos: pos})
		return false
	}
	return true
}

// Fill appends the lexer's next token to the window.
func (s *Stream) Fill(t Token) {
	s.la[s.nla] = t
	s.nla++
}

// Cur returns the current token.
func (s *Stream) Cur() Token { return s.la[0] }

// Lacks reports whether the window needs a Fill before Ahead(n)
// (n <= 2). Past the end it repeats the EOF token instead.
func (s *Stream) Lacks(n int) bool {
	for s.nla <= n {
		last := s.la[s.nla-1]
		if last.Kind != EOF {
			return true
		}
		s.Fill(last)
	}
	return false
}

// Ahead returns the token n places past the current one, which Lacks
// has made sure the window holds.
func (s *Stream) Ahead(n int) Token { return s.la[n] }

// Shift consumes and returns the current token. pull reports that the
// window is empty and the parser must Fill it. EOF is never consumed:
// once reached, it stays current.
func (s *Stream) Shift() (t Token, pull bool) {
	t = s.la[0]
	if t.Kind == EOF {
		return t, false
	}
	s.n++
	if s.nla == 1 {
		s.nla = 0
		return t, true
	}
	copy(s.la[:], s.la[1:s.nla])
	s.nla--
	return t, false
}

// Consumed returns the number of tokens consumed so far. A parser loop
// that finds it unchanged after an iteration has made no progress.
func (s *Stream) Consumed() int { return s.n }

// At reports whether the current token is of kind k.
func (s *Stream) At(k Kind) bool { return s.la[0].Kind == k }

// Is reports whether the current token is of kind k and spells text.
func (s *Stream) Is(k Kind, text string) bool {
	return s.la[0].Kind == k && s.la[0].Text == text
}

// Missing reports the syntax error of an Expect whose current token
// does not spell text, and returns false.
func (s *Stream) Missing(text string) bool {
	t := s.la[0]
	s.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting %q", t.Text, text)
	return false
}

// MissingIdent reports the syntax error of an ExpectIdent whose current
// token is not an identifier, naming what was expected, and returns
// ExpectIdent's failure.
func (s *Stream) MissingIdent(what string) (string, Pos, bool) {
	t := s.la[0]
	s.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting %s", t.Text, what)
	return "", t.Pos, false
}

// Errorf reports an error at pos in the stream's file.
func (s *Stream) Errorf(pos Pos, code, format string, args ...any) {
	s.Diags.Errorf(code, s.file, int(pos.Line), int(pos.Col), format, args...)
}
