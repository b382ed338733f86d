package hdl_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/hdl"
	"repro/internal/lex"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// sameDecode fails t unless two decodes of one literal agree on the
// error text and, when there is no error, on width and every bit.
func sameDecode(t *testing.T, what string, fast hdl.Vector, fastErr error, gen hdl.Vector, genErr error) {
	t.Helper()
	if (fastErr == nil) != (genErr == nil) || fastErr != nil && fastErr.Error() != genErr.Error() {
		t.Fatalf("%s: error %v, general path %v", what, fastErr, genErr)
	}
	if fastErr == nil && !fast.Equal(gen) {
		t.Fatalf("%s = %d'b%s, general path %d'b%s",
			what, fast.Width(), fast.BinString(), gen.Width(), gen.BinString())
	}
}

// suiteLiterals returns every distinct literal token in the suite's
// golden sources and full testbenches (rendered from each problem's
// stimulus rows), sorted: Verilog number texts, and VHDL bit-string
// and character literals as kind byte plus body.
func suiteLiterals() (vlog []string, vhd [][2]string) {
	vset, hset := map[string]bool{}, map[[2]string]bool{}
	for _, p := range bench.NewSuite().Problems {
		for _, src := range []string{p.GoldenVerilog, p.VerilogTB(p.Stimulus.In, p.Stimulus.Out)} {
			for _, tk := range lex.All(&verilog.Lexer{Cursor: lex.NewCursor(src)}, len(src)) {
				if tk.Kind == verilog.TokNumber {
					vset[tk.Text] = true
				}
			}
		}
		for _, src := range []string{p.GoldenVHDL, p.VHDLTB(p.Stimulus.In, p.Stimulus.Out)} {
			for _, tk := range lex.All(&vhdl.Lexer{Cursor: lex.NewCursor(src)}, len(src)) {
				switch tk.Kind {
				case vhdl.TokBitStr:
					hset[[2]string{tk.Text[:1], tk.Text[2:]}] = true
				case vhdl.TokChar:
					hset[[2]string{"c", tk.Text}] = true
				}
			}
		}
	}
	for s := range vset {
		vlog = append(vlog, s)
	}
	for k := range hset {
		vhd = append(vhd, k)
	}
	sort.Strings(vlog)
	sort.Slice(vhd, func(i, j int) bool { return vhd[i][0]+vhd[i][1] < vhd[j][0]+vhd[j][1] })
	return vlog, vhd
}

// FuzzParseVerilogLiteral checks the allocation-free fast path of
// ParseVerilogLiteral against the general path: every text must decode
// to the same vector and the same error through both.
func FuzzParseVerilogLiteral(f *testing.F) {
	vlog, _ := suiteLiterals()
	for _, s := range vlog {
		f.Add(s)
	}
	for _, s := range []string{
		"64'hFFFFFFFFFFFFFFFF", "65'h1FFFFFFFFFFFFFFFF", "64'd18446744073709551615",
		"65'd18446744073709551616", "64'b" + strings.Repeat("1", 64), "65'b1" + strings.Repeat("0", 64),
		"9999999999999999999", "18446744073709551616", "99999999999999999999", "4'd99999999999999999999",
		"8'b1010_1010", "1_000", "4'b1x0z", "8'hXX", "8'd?", "8'dx", "4'bz", "8'sd5", "8'Sb101",
		"0008'd1", "007", "0'd1", "8'd", "'d", "'", "", "8'q1", "8'o777", "3'b111111",
		" 8'd1", "8 'd1", "-5", "+5", "8'h-1", "'hFF", "'b", "99'd1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := hdl.ParseVerilogLiteral(text)
		g, gerr := hdl.ParseVerilogLiteralGeneral(text)
		sameDecode(t, "ParseVerilogLiteral("+text+")", v, err, g, gerr)
	})
}

// FuzzParseVHDLBitString checks the allocation-free fast path of
// ParseVHDLBitString against the general path: every kind and body
// must decode to the same vector and the same error through both.
func FuzzParseVHDLBitString(f *testing.F) {
	_, vhd := suiteLiterals()
	for _, k := range vhd {
		f.Add(k[0][0], k[1])
	}
	for _, c := range []struct {
		kind byte
		body string
	}{
		{'b', strings.Repeat("1", 64)}, {'b', "1" + strings.Repeat("0", 64)},
		{'x', strings.Repeat("F", 16)}, {'x', "1" + strings.Repeat("0", 16)},
		{'b', "1010_1010"}, {'x', "A_f"}, {'b', "10xz"}, {'b', "01ZXU-"}, {'x', "Xz"},
		{'b', ""}, {'x', ""}, {'b', "_"}, {'b', "0007"}, {'x', "00ff"}, {'x', "g"},
		{'o', "7"}, {'c', "0"}, {'c', "1"}, {'c', "_"}, {'c', "é"}, {'c', ""}, {'c', "01"},
		{'b', "é"}, {'q', "1"},
	} {
		f.Add(c.kind, c.body)
	}
	f.Fuzz(func(t *testing.T, kind byte, body string) {
		v, err := hdl.ParseVHDLBitString(kind, body)
		g, gerr := hdl.ParseVHDLBitStringGeneral(kind, body)
		sameDecode(t, "ParseVHDLBitString("+string(kind)+", "+body+")", v, err, g, gerr)
	})
}
