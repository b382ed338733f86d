package hdl

import (
	"fmt"
	"math/big"
	"strings"
)

// ParseVerilogLiteral parses a Verilog integer literal such as
// "8'hFF", "4'b10x0", "3'd5", "'1" is not supported (SystemVerilog), and
// bare decimals like "42". Underscores are ignored. The returned vector
// has the declared width, or 32 bits for unsized literals.
//
// Plain decimals and unsigned 'd/'b/'h literals of at most 64 bits
// whose digits are all known decode without allocating; anything else
// takes the general path, which gives the same result for those.
func ParseVerilogLiteral(text string) (Vector, error) {
	if v, ok := verilogLiteralFast(text); ok {
		return v, nil
	}
	return parseVerilogLiteral(text)
}

// verilogLiteralFast decodes a plain decimal or a sized or unsized
// 'd/'b/'h literal of at most 64 bits with only known digits and no
// underscores, signed marker or space. It reports false for any other
// text. Digits accumulate modulo 2^64, which keeps exactly the low bits
// the general path keeps for a vector of at most 64 bits.
func verilogLiteralFast(text string) (Vector, bool) {
	tick := 0
	for tick < len(text) && '0' <= text[tick] && text[tick] <= '9' {
		tick++
	}
	if tick == len(text) { // plain decimal
		if tick == 0 {
			return Vector{}, false
		}
		return FromUint(decimalDigits(text), 32), true
	}
	if text[tick] != '\'' || tick+2 >= len(text) {
		return Vector{}, false
	}
	width := 32
	if tick > 0 {
		width = 0
		for i := 0; i < tick; i++ {
			if width = width*10 + int(text[i]-'0'); width > 64 {
				return Vector{}, false
			}
		}
		if width < 1 {
			return Vector{}, false
		}
	}
	digits := text[tick+2:]
	switch text[tick+1] {
	case 'd', 'D':
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				return Vector{}, false
			}
		}
		return FromUint(decimalDigits(digits), width), true
	case 'b', 'B':
		return basedDigits(digits, 1, width)
	case 'h', 'H':
		return basedDigits(digits, 4, width)
	}
	return Vector{}, false
}

// decimalDigits returns the value of a string of ASCII decimal digits
// modulo 2^64.
func decimalDigits(s string) uint64 {
	var v uint64
	for i := 0; i < len(s); i++ {
		v = v*10 + uint64(s[i]-'0')
	}
	return v
}

// basedDigits decodes known binary or hex digits of bitsPerDigit bits
// each into a width-bit vector (width <= 64), keeping the low bits.
// It reports false for an empty string or any digit it does not know.
func basedDigits(digits string, bitsPerDigit, width int) (Vector, bool) {
	if digits == "" {
		return Vector{}, false
	}
	var v uint64
	for i := 0; i < len(digits); i++ {
		d := hexVal(digits[i])
		if d >= 1<<uint(bitsPerDigit) {
			return Vector{}, false
		}
		v = v<<uint(bitsPerDigit) | uint64(d)
	}
	return FromUint(v, width), true
}

// hexVal returns the value of an ASCII hex digit, or 16 for any other
// byte.
func hexVal(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}

// parseVerilogLiteral is ParseVerilogLiteral's general path: any width,
// x/z digits, underscores, the signed marker and every error.
func parseVerilogLiteral(text string) (Vector, error) {
	s := strings.ReplaceAll(strings.TrimSpace(text), "_", "")
	if s == "" {
		return Vector{}, fmt.Errorf("empty literal")
	}
	tick := strings.IndexByte(s, '\'')
	if tick < 0 {
		// Unsized decimal.
		n, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return Vector{}, fmt.Errorf("malformed decimal literal %q", text)
		}
		return fromBig(n, 32), nil
	}
	width := 32
	if tick > 0 {
		var w int
		if _, err := fmt.Sscanf(s[:tick], "%d", &w); err != nil || w < 1 {
			return Vector{}, fmt.Errorf("malformed width in literal %q", text)
		}
		width = w
	}
	rest := s[tick+1:]
	if rest == "" {
		return Vector{}, fmt.Errorf("missing base in literal %q", text)
	}
	base := rest[0]
	if base == 's' || base == 'S' { // signed marker: skip
		if len(rest) < 2 {
			return Vector{}, fmt.Errorf("missing base in literal %q", text)
		}
		rest = rest[1:]
		base = rest[0]
	}
	digits := rest[1:]
	if digits == "" {
		return Vector{}, fmt.Errorf("missing digits in literal %q", text)
	}
	switch base {
	case 'b', 'B':
		return parseBaseDigits(digits, 1, width, text)
	case 'o', 'O':
		return parseBaseDigits(digits, 3, width, text)
	case 'h', 'H':
		return parseBaseDigits(digits, 4, width, text)
	case 'd', 'D':
		if strings.ContainsAny(digits, "xXzZ?") {
			// A lone x/z fills the vector.
			if len(digits) == 1 {
				return NewVector(width, LogicFromRune(rune(digits[0]))), nil
			}
			return Vector{}, fmt.Errorf("x/z digits not allowed in decimal literal %q", text)
		}
		n, ok := new(big.Int).SetString(digits, 10)
		if !ok {
			return Vector{}, fmt.Errorf("malformed decimal literal %q", text)
		}
		return fromBig(n, width), nil
	default:
		return Vector{}, fmt.Errorf("unknown base %q in literal %q", string(base), text)
	}
}

// parseBaseDigits handles binary/octal/hex digit strings with x/z digits,
// left-padding per Verilog: MSB digit of x/z extends, otherwise zero fill.
func parseBaseDigits(digits string, bitsPerDigit, width int, orig string) (Vector, error) {
	var bits []Logic // little-endian accumulation
	runes := []rune(digits)
	for i := len(runes) - 1; i >= 0; i-- {
		r := runes[i]
		switch {
		case r == 'x' || r == 'X' || r == 'z' || r == 'Z' || r == '?':
			l := LogicFromRune(r)
			for b := 0; b < bitsPerDigit; b++ {
				bits = append(bits, l)
			}
		default:
			val, err := digitVal(r)
			if err != nil || val >= 1<<uint(bitsPerDigit) {
				return Vector{}, fmt.Errorf("bad digit %q in literal %q", string(r), orig)
			}
			for b := 0; b < bitsPerDigit; b++ {
				bits = append(bits, boolLogic(val&(1<<uint(b)) != 0))
			}
		}
	}
	out := NewVector(width, L0)
	// Verilog pads with the MSB digit's x/z, else zeros.
	if len(bits) > 0 && len(bits) < width {
		top := bits[len(bits)-1]
		if top == LX || top == LZ {
			out = NewVector(width, top)
		}
	}
	for i, l := range bits {
		out.SetBit(i, l)
	}
	return out, nil
}

func digitVal(r rune) (int, error) {
	switch {
	case r >= '0' && r <= '9':
		return int(r - '0'), nil
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10, nil
	case r >= 'A' && r <= 'F':
		return int(r-'A') + 10, nil
	}
	return 0, fmt.Errorf("not a digit: %q", string(r))
}

// ParseVHDLBitString parses a VHDL bit-string or character literal body:
// Kind 'b' for "1010", 'x' for x"AF", 'c' for '0'. Underscores ignored.
//
// Binary and hex bodies of at most 64 bits whose digits are all known,
// and ASCII character literals, decode without allocating; anything
// else takes the general path, which gives the same result for those.
func ParseVHDLBitString(kind byte, body string) (Vector, error) {
	if v, ok := vhdlBitStringFast(kind, body); ok {
		return v, nil
	}
	return parseVHDLBitString(kind, body)
}

// vhdlBitStringFast decodes a 'b body of at most 64 binary digits, an
// 'x body of at most 16 hex digits, or a one-byte ASCII 'c body other
// than '_'. It reports false for any other input.
func vhdlBitStringFast(kind byte, body string) (Vector, bool) {
	switch kind {
	case 'c':
		if len(body) == 1 && body[0] < 0x80 && body[0] != '_' {
			return Scalar(LogicFromRune(rune(body[0]))), true
		}
	case 'b':
		if len(body) <= 64 {
			return basedDigits(body, 1, len(body))
		}
	case 'x':
		if len(body) <= 16 {
			return basedDigits(body, 4, 4*len(body))
		}
	}
	return Vector{}, false
}

// parseVHDLBitString is ParseVHDLBitString's general path: x/z digits,
// underscores, wider bodies and every error.
func parseVHDLBitString(kind byte, body string) (Vector, error) {
	body = strings.ReplaceAll(body, "_", "")
	switch kind {
	case 'c':
		if len([]rune(body)) != 1 {
			return Vector{}, fmt.Errorf("character literal must be one character, got %q", body)
		}
		return Scalar(LogicFromRune([]rune(body)[0])), nil
	case 'b':
		if body == "" {
			return Vector{}, fmt.Errorf("empty bit string")
		}
		runes := []rune(body)
		out := NewVector(len(runes), L0)
		for i, r := range runes { // MSB first in source
			out.SetBit(len(runes)-1-i, LogicFromRune(r))
		}
		return out, nil
	case 'x':
		if body == "" {
			return Vector{}, fmt.Errorf("empty hex string")
		}
		return parseBaseDigits(body, 4, len(body)*4, body)
	default:
		return Vector{}, fmt.Errorf("unknown VHDL bit-string kind %q", string(kind))
	}
}
