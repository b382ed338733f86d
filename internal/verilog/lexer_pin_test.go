package verilog

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

var updateTokens = flag.Bool("update-tokens", false, "rewrite testdata/tokens.digest from the current lexer")

const tokenDigestFile = "testdata/tokens.digest"

// tokenDigest hashes every token's kind, text and position, so any
// change to the stream — a merged or split token, a different text, a
// column counted in bytes instead of runes — changes the digest.
func tokenDigest(src string) string {
	h := sha256.New()
	for _, t := range tokens(src) {
		fmt.Fprintf(h, "%d %q %d:%d\n", t.Kind, t.Text, t.Pos.Line, t.Pos.Col)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// suiteTokenDigests renders one line per suite source: problem id,
// which source (golden RTL, or the full testbench rendered from the
// problem's stimulus rows), and its digest.
func suiteTokenDigests() string {
	var b strings.Builder
	for _, p := range bench.NewSuite().Problems {
		fmt.Fprintf(&b, "%s golden %s\n", p.ID, tokenDigest(p.GoldenVerilog))
		fmt.Fprintf(&b, "%s tb %s\n", p.ID, tokenDigest(p.VerilogTB(p.Stimulus.In, p.Stimulus.Out)))
	}
	return b.String()
}

// TestTokenDigestSuite pins the token stream of every Verilog source in
// the benchmark suite (golden RTL and full testbenches). The
// committed digests were produced by the original rune-slice lexer, so
// a lexer rewrite must reproduce its output token for token. Run with
// -update-tokens only when a change to the token stream is intended.
func TestTokenDigestSuite(t *testing.T) {
	got := suiteTokenDigests()
	if *updateTokens {
		if err := os.WriteFile(tokenDigestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tokenDigestFile)
	if err != nil {
		t.Fatalf("token digests: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("suite has %d sources, digest file %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("token stream changed:\n got  %s\n want %s", have[i], want[i])
		}
	}
}

// TestLexTable pins exact token streams (kind, text, line:col) for the
// inputs where a byte-offset lexer could most easily drift from the
// rune-counted one: multi-byte letters, invalid UTF-8, escaped
// identifiers and the spaced size tick.
func TestLexTable(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"módulo x", `1 "módulo" 1:1|1 "x" 1:8|0 "" 1:9`},
		{"a\n\tβeta = γ;", `1 "a" 1:1|1 "βeta" 2:2|6 "=" 2:7|1 "γ" 2:9|6 ";" 2:10|0 "" 2:11`},
		{"a \xff b", `1 "a" 1:1|7 "�" 1:3|1 "b" 1:5|0 "" 1:6`},
		{"x\xc3", `1 "x" 1:1|7 "�" 1:2|0 "" 1:3`},
		{"€+", `7 "€" 1:1|6 "+" 1:2|0 "" 1:3`},
		{`"é\q"`, `4 "éq" 1:1|0 "" 1:6`},
		{`\bus[0] x`, `1 "bus[0]" 1:1|1 "x" 1:9|0 "" 1:10`},
		{`\a+b` + "\n;", `1 "a+b" 1:1|6 ";" 2:1|0 "" 2:2`},
		{"16 'd12 + 4'hF", `3 "16'd12" 1:1|6 "+" 1:9|3 "4'hF" 1:11|0 "" 1:15`},
		{"16 \t'sb1x", `3 "16'sb1x" 1:1|0 "" 1:10`},
		{"3 + 'q", `3 "3" 1:1|6 "+" 1:3|7 "'" 1:5|1 "q" 1:6|0 "" 1:7`},
		{"8'q", `7 "8'" 1:1|1 "q" 1:3|0 "" 1:4`},
		{"$ $display $a1_b", `7 "$" 1:1|5 "$display" 1:3|5 "$a1_b" 1:12|0 "" 1:17`},
		{"a<<<=b!==c", `1 "a" 1:1|6 "<<<" 1:2|6 "=" 1:5|1 "b" 1:6|6 "!==" 1:7|1 "c" 1:10|0 "" 1:11`},
		{"/* ü */ w // ö\n`define X\nq", `1 "w" 1:9|1 "q" 3:1|0 "" 3:2`},
		{"/* open", `0 "" 1:8`},
		{"", `0 "" 1:1`},
	}
	for _, c := range cases {
		var parts []string
		for _, tk := range tokens(c.src) {
			parts = append(parts, fmt.Sprintf("%d %q %d:%d", tk.Kind, tk.Text, tk.Pos.Line, tk.Pos.Col))
		}
		if got := strings.Join(parts, "|"); got != c.want {
			t.Errorf("tokens(%q):\n got  %s\n want %s", c.src, got, c.want)
		}
	}
}
