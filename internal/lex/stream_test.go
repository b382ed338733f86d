package lex

import (
	"strings"
	"testing"
)

// sliceLexer hands out toks and then one EOF token; a call past that
// EOF fails the test, so the stream must never pull past the end.
type sliceLexer struct {
	t     *testing.T
	toks  []Token
	calls int
}

func (l *sliceLexer) Next() Token {
	l.calls++
	switch {
	case l.calls <= len(l.toks):
		return l.toks[l.calls-1]
	case l.calls == len(l.toks)+1:
		return Token{Kind: EOF, Pos: Pos{Line: 9, Col: 9}}
	}
	l.t.Fatalf("Next called %d times for %d tokens and EOF", l.calls, len(l.toks))
	return Token{}
}

// testParser pulls from a sliceLexer the way both front-ends' parsers
// pull from their lexers.
type testParser struct {
	Stream
	lx *sliceLexer
}

func (p *testParser) Advance() Token {
	t, pull := p.Shift()
	if pull {
		p.Fill(p.lx.Next())
	}
	return t
}

func (p *testParser) Peek(n int) Token {
	for p.Lacks(n) {
		p.Fill(p.lx.Next())
	}
	return p.Ahead(n)
}

func (p *testParser) Accept(k Kind, text string) bool {
	if !p.Is(k, text) {
		return false
	}
	p.Advance()
	return true
}

func (p *testParser) Expect(k Kind, text string) bool {
	return p.Accept(k, text) || p.Missing(text)
}

func (p *testParser) ExpectIdent(what string) (string, Pos, bool) {
	if t := p.Cur(); t.Kind == Ident {
		p.Advance()
		return t.Text, t.Pos, true
	}
	return p.MissingIdent(what)
}

func start(lx *sliceLexer, file string, size int) *testParser {
	p := &testParser{lx: lx}
	if p.Start(file, size) {
		p.Fill(lx.Next())
	}
	return p
}

func newStream(t *testing.T, texts ...string) (*testParser, *sliceLexer) {
	lx := &sliceLexer{t: t}
	for i, text := range texts {
		lx.toks = append(lx.toks, Token{Kind: Ident, Text: text, Pos: Pos{Line: 1, Col: int32(i + 1)}})
	}
	return start(lx, "f.v", 0), lx
}

func TestStreamNeverConsumesEOF(t *testing.T) {
	s, _ := newStream(t, "a")
	if got := s.Advance(); got.Text != "a" || s.Consumed() != 1 {
		t.Fatalf("Advance = %q, consumed %d", got.Text, s.Consumed())
	}
	for i := 0; i < 3; i++ {
		if got := s.Advance(); got.Kind != EOF || !s.At(EOF) {
			t.Fatalf("Advance at the end = %v, current %v", got, s.Cur())
		}
	}
	if s.Consumed() != 1 {
		t.Errorf("consumed %d after advancing at EOF, want 1", s.Consumed())
	}
}

func TestStreamPeekPastEnd(t *testing.T) {
	s, lx := newStream(t, "a")
	if got := s.Peek(2); got.Kind != EOF || got.Pos != (Pos{Line: 9, Col: 9}) {
		t.Fatalf("Peek(2) = %v, want the EOF token", got)
	}
	if got := s.Peek(1); got.Kind != EOF {
		t.Fatalf("Peek(1) = %v, want EOF", got)
	}
	if lx.calls != 2 {
		t.Errorf("lexer called %d times, want 2", lx.calls)
	}
	s.Advance()
	if got := s.Peek(2); got.Kind != EOF || !s.At(EOF) {
		t.Errorf("Peek(2) at EOF = %v, current %v", got, s.Cur())
	}
}

func TestStreamWindowOrder(t *testing.T) {
	s, _ := newStream(t, "a", "b", "c", "d")
	if s.Peek(2).Text != "c" || s.Peek(1).Text != "b" {
		t.Fatalf("Peek(1), Peek(2) = %q, %q", s.Peek(1).Text, s.Peek(2).Text)
	}
	var got []string
	for !s.At(EOF) {
		got = append(got, s.Advance().Text)
	}
	if strings.Join(got, "") != "abcd" || s.Consumed() != 4 {
		t.Errorf("advanced over %q, consumed %d", got, s.Consumed())
	}
}

func TestStreamConsumedOnlyOnAdvance(t *testing.T) {
	s, _ := newStream(t, "a", "b")
	steps := []struct {
		name string
		do   func()
		want int
	}{
		{"Peek", func() { s.Peek(2) }, 0},
		{"Is", func() { s.Is(Ident, "a") }, 0},
		{"Accept miss", func() { s.Accept(Ident, "b") }, 0},
		{"Expect miss", func() { s.Expect(Keyword, "a") }, 0},
		{"Accept hit", func() { s.Accept(Ident, "a") }, 1},
		{"ExpectIdent hit", func() { s.ExpectIdent("name") }, 2},
		{"ExpectIdent at EOF", func() { s.ExpectIdent("name") }, 2},
		{"Expect at EOF", func() { s.Expect(Ident, "") }, 2},
	}
	for _, st := range steps {
		st.do()
		if s.Consumed() != st.want {
			t.Fatalf("after %s: consumed %d, want %d", st.name, s.Consumed(), st.want)
		}
	}
	if want := `syntax error near "a"; expecting "a"`; len(s.Diags) != 3 || s.Diags[0].Message != want {
		t.Errorf("diags = %v, want 3 starting with %s", s.Diags, want)
	}
}

func TestStreamSizeLimit(t *testing.T) {
	for _, size := range []int{MaxSource, MaxSource + 1} {
		lx := &sliceLexer{t: t, toks: []Token{{Kind: Ident, Text: "a"}}}
		s := start(lx, "big.v", size)
		if size <= MaxSource {
			if len(s.Diags) != 0 {
				t.Fatalf("size %d: diagnostics %v", size, s.Diags)
			}
			if lx.calls != 1 || !s.Is(Ident, "a") {
				t.Errorf("size %d: %d lexer calls, current %v", size, lx.calls, s.Cur())
			}
			continue
		}
		if len(s.Diags) != 1 {
			t.Fatalf("size %d: %d diagnostics, want 1", size, len(s.Diags))
		}
		if d := s.Diags[0]; d.Code != SizeCode || d.File != "big.v" || d.Line != 1 || d.Col != 1 {
			t.Errorf("size %d: diagnostic %+v", size, d)
		}
		if s.Peek(2); !s.At(EOF) || lx.calls != 0 {
			t.Errorf("size %d: current %v after %d lexer calls; want EOF and none", size, s.Cur(), lx.calls)
		}
	}
}
