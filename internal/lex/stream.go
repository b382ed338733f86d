package lex

import "repro/internal/diag"

// Lexer is the source of a Stream's tokens. Next returns the next
// token, and an EOF token at the end of the input.
type Lexer interface{ Next() Token }

// Stream is a recursive-descent parser's view of its tokens: a
// three-token window pulled from a Lexer on demand (Peek(2) is the
// deepest lookahead, and the parsers never backtrack, so no token slice
// is built), the count of tokens consumed, and the diagnostics reported
// so far. A parser embeds a Stream and adds only its grammar.
type Stream struct {
	lx    Lexer
	la    [3]Token // lookahead window: la[0] is the current token
	nla   int      // tokens held in la, 1 to 3
	n     int      // tokens consumed so far
	file  string
	Diags diag.List
}

// Start points s at the tokens of lx, which lexes a source of size
// bytes named file in diagnostics, and reads the first token. A source
// over MaxSource bytes is not lexed: s reports one error and starts at
// EOF.
func (s *Stream) Start(lx Lexer, file string, size int) {
	*s = Stream{lx: lx, nla: 1, file: file}
	if size > MaxSource {
		pos := Pos{Line: 1, Col: 1}
		s.Errorf(pos, SizeCode, "source is %d bytes, over the %d-byte limit", size, MaxSource)
		s.la[0] = Token{Kind: EOF, Pos: pos}
		return
	}
	s.la[0] = lx.Next()
}

// Cur returns the current token.
func (s *Stream) Cur() Token { return s.la[0] }

// Peek returns the token n places past the current one (n <= 2),
// lexing it on demand; past the end it returns the EOF token.
func (s *Stream) Peek(n int) Token {
	for s.nla <= n {
		if last := s.la[s.nla-1]; last.Kind == EOF {
			s.la[s.nla] = last
		} else {
			s.la[s.nla] = s.lx.Next()
		}
		s.nla++
	}
	return s.la[n]
}

// Advance consumes and returns the current token. EOF is never
// consumed: once reached, it stays current.
func (s *Stream) Advance() Token {
	t := s.la[0]
	if t.Kind == EOF {
		return t
	}
	s.n++
	if s.nla > 1 {
		copy(s.la[:], s.la[1:s.nla])
		s.nla--
	} else {
		s.la[0] = s.lx.Next()
	}
	return t
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

// Accept consumes the current token if it is of kind k and spells text.
func (s *Stream) Accept(k Kind, text string) bool {
	if s.Is(k, text) {
		s.Advance()
		return true
	}
	return false
}

// Expect consumes the current token if it is of kind k and spells text,
// and reports a syntax error otherwise.
func (s *Stream) Expect(k Kind, text string) bool {
	if s.Accept(k, text) {
		return true
	}
	t := s.la[0]
	s.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting %q", t.Text, text)
	return false
}

// ExpectIdent consumes the current token if it is an identifier and
// returns its text and position; otherwise it reports a syntax error
// naming what was expected.
func (s *Stream) ExpectIdent(what string) (string, Pos, bool) {
	t := s.la[0]
	if t.Kind == Ident {
		s.Advance()
		return t.Text, t.Pos, true
	}
	s.Errorf(t.Pos, "VRFC 10-1", "syntax error near %q; expecting %s", t.Text, what)
	return "", t.Pos, false
}

// Errorf reports an error at pos in the stream's file.
func (s *Stream) Errorf(pos Pos, code, format string, args ...any) {
	s.Diags.Errorf(code, s.file, pos.Line, pos.Col, format, args...)
}
