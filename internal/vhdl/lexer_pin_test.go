package vhdl

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
		fmt.Fprintf(&b, "%s golden %s\n", p.ID, tokenDigest(p.GoldenVHDL))
		fmt.Fprintf(&b, "%s tb %s\n", p.ID, tokenDigest(p.VHDLTB(p.Stimulus.In, p.Stimulus.Out)))
	}
	return b.String()
}

// TestTokenDigestSuite pins the token stream of every VHDL source in
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
// rune-counted one: multi-byte letters, invalid UTF-8, the character
// literal against the attribute tick, case folding and digit grouping.
func TestLexTable(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"Ärger <= Über;", `1 "ärger" 1:1|7 "<=" 1:7|1 "über" 1:10|7 ";" 1:14|0 "" 1:15`},
		{"a\n\tβ := 'é';", `1 "a" 1:1|1 "β" 2:2|7 ":=" 2:4|4 "é" 2:7|7 ";" 2:10|0 "" 2:11`},
		{"a \xff b", `1 "a" 1:1|8 "�" 1:3|1 "b" 1:5|0 "" 1:6`},
		{"'\xff' x\xc3", `4 "�" 1:1|1 "x" 1:5|8 "�" 1:6|0 "" 1:7`},
		{"€+", `8 "€" 1:1|7 "+" 1:2|0 "" 1:3`},
		{"clk'event and s = '1'", `1 "clk" 1:1|7 "'" 1:4|2 "event" 1:5|2 "and" 1:11|1 "s" 1:15|7 "=" 1:17|4 "1" 1:19|0 "" 1:22`},
		{"v'length'(x)", `1 "v" 1:1|7 "'" 1:2|2 "length" 1:3|7 "'" 1:9|7 "(" 1:10|1 "x" 1:11|7 ")" 1:12|0 "" 1:13`},
		{"q'a' ''' '", `1 "q" 1:1|4 "a" 1:2|4 "'" 1:6|7 "'" 1:10|0 "" 1:11`},
		{"'\x00'", `7 "'" 1:1|8 "\x00" 1:2|7 "'" 1:3|0 "" 1:4`},
		{"Signal CLK_En : STD_LOGIC;", `2 "signal" 1:1|1 "clk_en" 1:8|7 ":" 1:15|1 "std_logic" 1:17|7 ";" 1:26|0 "" 1:27`},
		{"wait For 1_000 NS;", `2 "wait" 1:1|2 "for" 1:6|3 "1000" 1:10|2 "ns" 1:16|7 ";" 1:18|0 "" 1:19`},
		{"12ab 0_", `3 "12" 1:1|1 "ab" 1:3|3 "0" 1:6|0 "" 1:8`},
		{`X"A_f" b"10" O"7" "01ZX" "hi é" ""`, `5 "x:A_f" 1:1|5 "b:10" 1:8|5 "o:7" 1:14|5 "b:01ZX" 1:19|6 "hi é" 1:26|6 "" 1:33|0 "" 1:35`},
		{"xy\"1\"", `1 "xy" 1:1|5 "b:1" 1:3|0 "" 1:6`},
		{"\"open\nx", `8 "unterminated string" 1:1|1 "x" 2:1|0 "" 2:2`},
		{"a /= b => c ** 2 -- ü comment\n-", `1 "a" 1:1|7 "/=" 1:3|1 "b" 1:6|7 "=>" 1:8|1 "c" 1:11|7 "**" 1:13|3 "2" 1:16|7 "-" 2:1|0 "" 2:2`},
		{"_x", `8 "_" 1:1|1 "x" 1:2|0 "" 1:3`},
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

// oldOps is the operator list the lexer once scanned with
// strings.HasPrefix, longest first; TestOpLenOracle holds opLen to it.
var oldOps = []string{
	"<=", ">=", "/=", ":=", "=>", "**",
	"=", "<", ">", "+", "-", "*", "/", "&",
	"(", ")", ",", ";", ":", "'", ".", "|",
}

// TestOpLenOracle checks opLen on every ASCII string of one to three
// bytes against a longest-prefix scan over oldOps.
func TestOpLenOracle(t *testing.T) {
	var buf [3]byte
	for n := 1; n <= 3; n++ {
		for code := 0; code < 1<<(7*n); code++ {
			for i := 0; i < n; i++ {
				buf[i] = byte(code >> (7 * i) & 0x7f)
			}
			s := string(buf[:n])
			want := 0
			for _, op := range oldOps {
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
	"entity", "is", "end", "architecture", "of", "port", "generic", "map", "in", "out",
	"inout", "buffer", "signal", "variable", "constant", "begin", "process", "if",
	"then", "elsif", "else", "case", "when", "others", "for", "loop", "to", "downto",
	"wait", "until", "on", "after", "report", "assert", "severity", "library", "use",
	"and", "or", "not", "xor", "nand", "nor", "xnor", "mod", "rem", "sll",
	"srl", "null", "component", "work", "all", "type", "range", "array", "subtype",
	"function", "return", "while", "exit", "integer", "boolean", "natural", "positive",
	"ns", "ps", "us", "ms", "true", "false", "generate", "select",
	"with", "block", "label", "configuration", "string", "time", "event", "length",
}

// TestIsKeywordOracle checks IsKeyword on every old keyword and on near
// misses: upper case (the lexer folds before asking), one byte short or
// long, and the empty string.
func TestIsKeywordOracle(t *testing.T) {
	set := map[string]bool{}
	for _, kw := range oldKeywords {
		set[kw] = true
	}
	probes := []string{"", "x", "std_logic", "Entity", "ENTITY", "entit", "ends"}
	for _, kw := range oldKeywords {
		probes = append(probes, kw, strings.ToUpper(kw), kw[:len(kw)-1], kw+"_", kw+"1")
	}
	for _, s := range probes {
		if got := IsKeyword(s); got != set[s] {
			t.Errorf("IsKeyword(%q) = %v, want %v", s, got, set[s])
		}
	}
}
