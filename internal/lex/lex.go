// Package lex is the lexical substrate that the Verilog and VHDL
// front-ends share: the source position and token types, the
// byte-offset source Cursor a lexer walks, and the token Stream a
// parser reads through. Each front-end keeps only its language rules
// on top: which bytes start which token, operators, keywords and
// literal syntax in its lexer, and grammar and error recovery in its
// parser.
package lex

import "fmt"

// Pos is a source position (1-based line and column). A lexed source
// is at most MaxSource bytes, so both fit in 32 bits, and a Pos in
// every token and AST node costs 8 bytes.
type Pos struct {
	Line int32
	Col  int32
}

// String implements fmt.Stringer.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Kind classifies a token. The kinds below are common to both HDLs;
// each front-end numbers its own kinds from Keyword+1 on.
type Kind int

// Token kinds common to both HDLs.
const (
	EOF Kind = iota
	Ident
	Keyword
)

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// MaxSource is the largest source, in bytes, that a front-end lexes;
// Stream.Start rejects a larger one with a single diagnostic. It is
// well above eight times the largest testbench of the suite.
const MaxSource = 1 << 20

// SizeCode is the diagnostic code of a source over MaxSource.
const SizeCode = "VRFC 10-40"

// All lexes everything lx produces up to and including its EOF token.
// size is the source length in bytes, used to size the result.
func All(lx Lexer, size int) []Token {
	out := make([]Token, 0, size/4+1)
	for {
		t := lx.Next()
		out = append(out, t)
		if t.Kind == EOF {
			return out
		}
	}
}
