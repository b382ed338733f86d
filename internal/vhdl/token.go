// Package vhdl implements a lexer, parser, and semantic checker for a
// VHDL-93 subset sufficient for the RTL designs and testbenches used by
// the AIVRIL 2 reproduction: entity/architecture pairs, processes,
// signal/variable assignment, if/case/for, assert/report, wait
// statements, and direct entity instantiation.
//
// VHDL is case-insensitive; the lexer lower-cases identifiers and
// keywords, preserving original text only inside string literals.
package vhdl

import "fmt"

// TokKind classifies lexical tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt    // integer literal
	TokChar   // character literal '0'
	TokBitStr // bit string "1010" or x"AF"
	TokString // string literal used by report
	TokOp     // operator / punctuation
	TokError
)

// Pos is a 1-based source position.
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // lower-cased for idents/keywords
	Pos  Pos
}

// IsKeyword reports whether the lower-cased word is reserved. A switch
// on constant strings compiles to a length dispatch plus a few
// compares, cheaper than a map lookup on the lexer's path.
func IsKeyword(s string) bool {
	switch s {
	case "entity", "is", "end", "architecture", "of",
		"port", "generic", "map", "in", "out",
		"inout", "buffer", "signal", "variable",
		"constant", "begin", "process", "if",
		"then", "elsif", "else", "case", "when",
		"others", "for", "loop", "to", "downto",
		"wait", "until", "on", "after", "report",
		"assert", "severity", "library", "use",
		"and", "or", "not", "xor", "nand",
		"nor", "xnor", "mod", "rem", "sll",
		"srl", "null", "component", "work",
		"all", "type", "range", "array", "subtype",
		"function", "return", "while", "exit",
		"integer", "boolean", "natural", "positive",
		"ns", "ps", "us", "ms",
		"true", "false", "generate", "select",
		"with", "block", "label", "configuration",
		"string", "time", "event", "length":
		return true
	}
	return false
}
