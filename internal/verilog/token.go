// Package verilog implements a lexer, parser, and semantic checker for a
// synthesisable Verilog-2001 subset plus the testbench constructs needed
// by the AIVRIL 2 reproduction (initial blocks, delays, system tasks).
//
// The front-end produces either an AST for elaboration by package vsim or
// a list of structured diagnostics that package edatool renders into
// Vivado-style compiler logs for the Review Agent.
package verilog

import "repro/internal/lex"

// Verilog token kinds, numbered on from the kinds common to both HDLs
// (lex.EOF, lex.Ident, lex.Keyword).
const (
	TokNumber lex.Kind = lex.Keyword + 1 + iota // sized or unsized literal, e.g. 8'hFF, 42
	TokString
	TokSysName // $display, $time, ...
	TokOp      // operator or punctuation
	TokError   // lexically malformed token
)

// IsKeyword reports whether s is a reserved word of the supported
// subset. A switch on constant strings compiles to a length dispatch
// plus a few compares, cheaper than a map lookup on the lexer's path.
func IsKeyword(s string) bool {
	switch s {
	case "module", "endmodule", "input", "output",
		"inout", "wire", "reg", "integer",
		"parameter", "localparam", "assign",
		"always", "initial", "begin", "end",
		"if", "else", "case", "casez", "casex",
		"endcase", "default", "for", "while",
		"repeat", "forever", "posedge", "negedge",
		"or", "signed", "genvar", "generate",
		"endgenerate", "function", "endfunction",
		"task", "endtask", "real", "time",
		"wait":
		return true
	}
	return false
}
