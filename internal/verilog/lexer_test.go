package verilog

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lex"
)

func kinds(toks []lex.Token) []lex.Kind {
	out := make([]lex.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks := tokens("module foo; endmodule")
	want := []lex.Kind{lex.Keyword, lex.Ident, TokOp, lex.Keyword, lex.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok %d kind %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"8'hFF":      "8'hFF",
		"4'b10x0":    "4'b10x0",
		"42":         "42",
		"16 'd12":    "16'd12", // space before tick is legal
		"8'b0000_01": "8'b0000_01",
		"'d3":        "'d3",
		"2'b1?":      "2'b1?",
	}
	for src, want := range cases {
		toks := tokens(src)
		if toks[0].Kind != TokNumber || toks[0].Text != want {
			t.Errorf("lex %q: got %v %q", src, toks[0].Kind, toks[0].Text)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks := tokens("a // line\n /* block\nmore */ b `timescale 1ns/1ps\nc")
	var idents []string
	for _, tk := range toks {
		if tk.Kind == lex.Ident {
			idents = append(idents, tk.Text)
		}
	}
	if len(idents) != 3 || idents[0] != "a" || idents[1] != "b" || idents[2] != "c" {
		t.Errorf("idents = %v", idents)
	}
}

func TestLexString(t *testing.T) {
	toks := tokens(`$display("hi\n%d", x);`)
	if toks[0].Kind != TokSysName || toks[0].Text != "$display" {
		t.Fatalf("sysname: %v", toks[0])
	}
	if toks[2].Kind != TokString || toks[2].Text != "hi\n%d" {
		t.Fatalf("string: %v %q", toks[2].Kind, toks[2].Text)
	}
}

func TestLexOperators(t *testing.T) {
	toks := tokens("a <= b == c <<< 2 !== d")
	var ops []string
	for _, tk := range toks {
		if tk.Kind == TokOp {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"<=", "==", "<<<", "!=="}
	if len(ops) != len(want) {
		t.Fatalf("ops %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q want %q", i, ops[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := tokens("a\n  b")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	toks := tokens("\"abc\nd")
	if toks[0].Kind != TokError {
		t.Errorf("want TokError, got %v", toks[0])
	}
}

func TestLexAlwaysTerminates(t *testing.T) {
	// Property: lexing arbitrary input terminates with EOF and never
	// produces an empty non-EOF token stream element.
	f := func(s string) bool {
		toks := tokens(s)
		if len(toks) == 0 {
			return false
		}
		return toks[len(toks)-1].Kind == lex.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oldOperators is the operator list the lexer once scanned with
// strings.HasPrefix, longest first; TestOpLenOracle holds opLen to it.
var oldOperators = []string{
	"<<<", ">>>", "===", "!==",
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~^", "^~", "~&", "~|", "**",
	"+", "-", "*", "/", "%", "!", "~", "&", "|", "^", "<", ">", "=",
	"(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "@", "#", ".",
}

// TestOpLenOracle checks opLen on every ASCII string of one to three
// bytes against a longest-prefix scan over oldOperators.
func TestOpLenOracle(t *testing.T) {
	var buf [3]byte
	for n := 1; n <= 3; n++ {
		for code := 0; code < 1<<(7*n); code++ {
			for i := 0; i < n; i++ {
				buf[i] = byte(code >> (7 * i) & 0x7f)
			}
			s := string(buf[:n])
			want := 0
			for _, op := range oldOperators {
				if strings.HasPrefix(s, op) {
					want = len(op)
					break
				}
			}
			if got := opLen(s); got != want {
				t.Fatalf("opLen(%q) = %d, want %d", s, got, want)
			}
		}
	}
}

// oldKeywords is the reserved-word set the lexer once looked up in a
// map; TestIsKeywordOracle holds IsKeyword to it.
var oldKeywords = []string{
	"module", "endmodule", "input", "output", "inout", "wire", "reg", "integer",
	"parameter", "localparam", "assign", "always", "initial", "begin", "end",
	"if", "else", "case", "casez", "casex", "endcase", "default", "for", "while",
	"repeat", "forever", "posedge", "negedge", "or", "signed", "genvar", "generate",
	"endgenerate", "function", "endfunction", "task", "endtask", "real", "time",
	"wait",
}

// TestIsKeywordOracle checks IsKeyword on every old keyword and on near
// misses: case changes, one byte short or long, and the empty string.
func TestIsKeywordOracle(t *testing.T) {
	set := map[string]bool{}
	for _, kw := range oldKeywords {
		set[kw] = true
	}
	probes := []string{"", "x", "modules", "Module", "MODULE", "wir", "ende"}
	for _, kw := range oldKeywords {
		probes = append(probes, kw, strings.ToUpper(kw), kw[:len(kw)-1], kw+"_", "$"+kw)
	}
	for _, s := range probes {
		if got := IsKeyword(s); got != set[s] {
			t.Errorf("IsKeyword(%q) = %v, want %v", s, got, set[s])
		}
	}
}
