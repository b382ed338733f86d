// Package vhdl implements a lexer, parser, and semantic checker for a
// VHDL-93 subset sufficient for the RTL designs and testbenches used by
// the AIVRIL 2 reproduction: entity/architecture pairs, processes,
// signal/variable assignment, if/case/for, assert/report, wait
// statements, and direct entity instantiation.
//
// VHDL is case-insensitive; the lexer lower-cases identifiers and
// keywords, preserving original text only inside string literals.
package vhdl

import "repro/internal/lex"

// VHDL token kinds, numbered on from the kinds common to both HDLs
// (lex.EOF, lex.Ident, lex.Keyword; identifiers and keywords are
// lower-cased).
const (
	TokInt    lex.Kind = lex.Keyword + 1 + iota // integer literal
	TokChar                                     // character literal '0'
	TokBitStr                                   // bit string "1010" or x"AF"
	TokString                                   // string literal used by report
	TokOp                                       // operator / punctuation
	TokError
)

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
