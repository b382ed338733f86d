package hdl

import (
	"testing"
	"testing/quick"
)

func TestParseVerilogLiteralBasic(t *testing.T) {
	cases := []struct {
		in    string
		width int
		val   uint64
	}{
		{"8'hFF", 8, 0xFF},
		{"8'hff", 8, 0xFF},
		{"4'b1010", 4, 0b1010},
		{"3'd5", 3, 5},
		{"6'o17", 6, 0o17},
		{"42", 32, 42},
		{"16'd1000", 16, 1000},
		{"8'b0000_0001", 8, 1},
		{"1'b1", 1, 1},
		{"32'hDEAD_BEEF", 32, 0xDEADBEEF},
		{"'d7", 32, 7},
		{"4'sb0110", 4, 6},
	}
	for _, c := range cases {
		v, err := ParseVerilogLiteral(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if v.Width() != c.width {
			t.Errorf("%q width = %d, want %d", c.in, v.Width(), c.width)
		}
		got, ok := v.Uint()
		if !ok || got != c.val {
			t.Errorf("%q = %d (ok=%v), want %d", c.in, got, ok, c.val)
		}
	}
}

func TestParseVerilogLiteralXZ(t *testing.T) {
	v, err := ParseVerilogLiteral("4'b10x0")
	if err != nil {
		t.Fatal(err)
	}
	if v.BinString() != "10x0" {
		t.Errorf("got %q", v.BinString())
	}
	v, err = ParseVerilogLiteral("8'hxz")
	if err != nil {
		t.Fatal(err)
	}
	if v.BinString() != "xxxxzzzz" {
		t.Errorf("got %q", v.BinString())
	}
	// MSB x digit extends left.
	v, err = ParseVerilogLiteral("8'bx1")
	if err != nil {
		t.Fatal(err)
	}
	if v.BinString() != "xxxxxxx1" {
		t.Errorf("x extension: got %q", v.BinString())
	}
	v, err = ParseVerilogLiteral("8'dx")
	if err != nil {
		t.Fatal(err)
	}
	if v.BinString() != "xxxxxxxx" {
		t.Errorf("dx: got %q", v.BinString())
	}
}

func TestParseVerilogLiteralErrors(t *testing.T) {
	for _, bad := range []string{"", "8'", "8'q12", "4'b2", "8'dxy", "zz", "0'b1"} {
		if _, err := ParseVerilogLiteral(bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
	}
}

func TestParseVHDLBitString(t *testing.T) {
	v, err := ParseVHDLBitString('c', "1")
	if err != nil || !v.Equal(FromBool(true)) {
		t.Errorf("'1' parse: %v %v", v, err)
	}
	v, err = ParseVHDLBitString('b', "1010")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Uint(); got != 0b1010 || v.Width() != 4 {
		t.Errorf("\"1010\" = %v", v)
	}
	v, err = ParseVHDLBitString('x', "AF")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Uint(); got != 0xAF || v.Width() != 8 {
		t.Errorf("x\"AF\" = %v", v)
	}
	if _, err := ParseVHDLBitString('c', "10"); err == nil {
		t.Error("two-char character literal must fail")
	}
	if _, err := ParseVHDLBitString('b', ""); err == nil {
		t.Error("empty bit string must fail")
	}
}

func TestQuickLiteralRoundTrip(t *testing.T) {
	// Decimal round trip.
	g := func(v uint32) bool {
		lit := FromUint(uint64(v), 32)
		parsed, err := ParseVerilogLiteral("32'd" + lit.DecString())
		if err != nil {
			return false
		}
		return parsed.Equal(lit)
	}
	if err := quick.Check(g, quickCfg()); err != nil {
		t.Error(err)
	}
	// Hex round trip.
	h := func(v uint64) bool {
		lit := FromUint(v, 64)
		parsed, err := ParseVerilogLiteral("64'h" + lit.HexString())
		if err != nil {
			return false
		}
		return parsed.Equal(lit)
	}
	if err := quick.Check(h, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestLiteralFastPathAllocs checks that the literals the fast paths
// cover decode without allocating.
func TestLiteralFastPathAllocs(t *testing.T) {
	for _, s := range []string{"42", "8'd12", "4'b1010", "32'hDEADBEEF", "'d7", "64'hFFFFFFFFFFFFFFFF"} {
		if n := testing.AllocsPerRun(100, func() { benchSink, _ = ParseVerilogLiteral(s) }); n != 0 {
			t.Errorf("ParseVerilogLiteral(%q) allocated %v times", s, n)
		}
	}
	for _, c := range []struct {
		kind byte
		body string
	}{{'b', "1010"}, {'x', "AF"}, {'c', "1"}, {'b', "1111111111111111111111111111111111111111111111111111111111111111"}} {
		if n := testing.AllocsPerRun(100, func() { benchSink, _ = ParseVHDLBitString(c.kind, c.body) }); n != 0 {
			t.Errorf("ParseVHDLBitString(%c, %q) allocated %v times", c.kind, c.body, n)
		}
	}
}
