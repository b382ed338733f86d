package hdl

import (
	"math/big"
	"testing"
)

// FuzzVectorOps cross-checks the packed two-plane Vector arithmetic
// and comparison kernels against the byte-per-bit reference model from
// prop_test.go on fuzzer-chosen operands. The property tests sample
// from a fixed RNG; the fuzzer instead explores the encoding space
// (widths straddling word boundaries, dense X/Z patterns, degenerate
// zero/all-ones operands) and keeps regressions in testdata/fuzz.
//
// Input encoding: byte 0 and 1 choose the two widths (1..160); the
// remaining bytes supply 2-bit Logic codes, first vector then second,
// LSB first. Missing trailing bits default to 0.
func FuzzVectorOps(f *testing.F) {
	// Seed corpus: word-boundary widths, unknown-heavy patterns, and
	// the all-zero degenerate. More committed seeds live in
	// testdata/fuzz/FuzzVectorOps.
	f.Add([]byte{1, 1, 0b01})
	f.Add([]byte{64, 64, 0xff, 0xaa, 0x55, 0x00, 0x42, 0x42, 0x42, 0x42})
	f.Add([]byte{65, 63, 0b1110, 0xe4, 0xe4, 0x1b, 0x00, 0xff})
	f.Add([]byte{128, 32, 0xde, 0xad, 0xbe, 0xef, 0xe4, 0xe4, 0xe4, 0xe4})
	f.Add([]byte{33, 97, 0x00})
	// Two-state/four-state classification boundary (known64/IsKnown):
	// a fully known 64-bit value (widest classifiable), a fully known
	// 65-bit value (width excludes it), a 64-bit value with a single X
	// in the top bit, and a 1-bit Z.
	f.Add([]byte{64, 1, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55,
		0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55})
	f.Add([]byte{65, 1, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55,
		0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x01})
	f.Add([]byte{64, 1, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Add([]byte{1, 1, 0b11})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		wa := 1 + int(data[0])%160
		wb := 1 + int(data[1])%160
		bits := data[2:]
		decode := func(offset, w int) Vector {
			v := NewVector(w, L0)
			for i := 0; i < w; i++ {
				bi := offset + i
				byteIdx := bi / 4
				if byteIdx >= len(bits) {
					break
				}
				code := (bits[byteIdx] >> uint((bi%4)*2)) & 3
				v.SetBit(i, Logic(code))
			}
			return v
		}
		a := decode(0, wa)
		b := decode(wa, wb)
		ra, rb := refFromVector(a), refFromVector(b)
		w := max(wa, wb)
		rax, rbx := ra.resize(w), rb.resize(w)

		// Bitwise ops against the per-bit reference tables.
		wantEqual(t, "and", a, b, a.BitwiseAnd(b), refBinary(ra, rb, Logic.And))
		wantEqual(t, "or", a, b, a.BitwiseOr(b), refBinary(ra, rb, Logic.Or))
		wantEqual(t, "xor", a, b, a.BitwiseXor(b), refBinary(ra, rb, Logic.Xor))

		// Compares.
		var wantEq Logic
		if !rax.isKnown() || !rbx.isKnown() {
			wantEq = LX
		} else {
			wantEq = L1
			for i := 0; i < w; i++ {
				if rax[i] != rbx[i] {
					wantEq = L0
					break
				}
			}
		}
		if got := a.Eq(b).Bit(0); got != wantEq {
			t.Fatalf("Eq(%v, %v) = %v, want %v", a, b, got, wantEq)
		}
		wantCase := L1
		for i := 0; i < w; i++ {
			if rax[i] != rbx[i] {
				wantCase = L0
				break
			}
		}
		if got := a.CaseEq(b).Bit(0); got != wantCase {
			t.Fatalf("CaseEq(%v, %v) = %v, want %v", a, b, got, wantCase)
		}

		// Reductions on a.
		accAnd, accOr, accXor := L1, L0, L0
		for _, l := range ra {
			accAnd = accAnd.And(l)
			accOr = accOr.Or(l)
			accXor = accXor.Xor(l)
		}
		if got := a.ReduceAnd().Bit(0); got != accAnd {
			t.Fatalf("ReduceAnd(%v) = %v, want %v", a, got, accAnd)
		}
		if got := a.ReduceOr().Bit(0); got != accOr {
			t.Fatalf("ReduceOr(%v) = %v, want %v", a, got, accOr)
		}
		if got := a.ReduceXor().Bit(0); got != accXor {
			t.Fatalf("ReduceXor(%v) = %v, want %v", a, got, accXor)
		}

		// Arithmetic: known operands check against big.Int (mod 2^w),
		// any unknown bit poisons the whole result to X.
		if a.IsKnown() && b.IsKnown() {
			mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
			ba, bb := refBytes(a), refBytes(b)
			wantAdd := new(big.Int).Add(ba, bb)
			wantAdd.Mod(wantAdd, mod)
			if got := refBytes(a.Add(b)); got.Cmp(wantAdd) != 0 {
				t.Fatalf("Add(%v, %v) = %x, want %x", a, b, got, wantAdd)
			}
			wantSub := new(big.Int).Sub(ba, bb)
			wantSub.Mod(wantSub, mod)
			if wantSub.Sign() < 0 {
				wantSub.Add(wantSub, mod)
			}
			if got := refBytes(a.Sub(b)); got.Cmp(wantSub) != 0 {
				t.Fatalf("Sub(%v, %v) = %x, want %x", a, b, got, wantSub)
			}
			wantMul := new(big.Int).Mul(ba, bb)
			wantMul.Mod(wantMul, mod)
			if got := refBytes(a.Mul(b)); got.Cmp(wantMul) != 0 {
				t.Fatalf("Mul(%v, %v) = %x, want %x", a, b, got, wantMul)
			}
		} else {
			for _, op := range []struct {
				name string
				out  Vector
			}{{"add", a.Add(b)}, {"sub", a.Sub(b)}, {"mul", a.Mul(b)}} {
				for i := 0; i < op.out.Width(); i++ {
					if op.out.Bit(i) != LX {
						t.Fatalf("%s with unknown operand: bit %d = %v, want x", op.name, i, op.out.Bit(i))
					}
				}
			}
		}

		// Two-state classification: known64 must accept exactly the
		// fully known <= 64-bit values (the guard of the arithmetic
		// fast paths), and the value it returns must match the per-bit
		// reference. IsKnown must agree with the per-bit known test at
		// every width.
		for _, v := range []Vector{a, b} {
			ref := refFromVector(v)
			u, ok := v.known64()
			if wantOK := ref.isKnown() && v.Width() <= 64; ok != wantOK {
				t.Fatalf("known64(%v) ok = %v, want %v", v, ok, wantOK)
			}
			if ok {
				var want uint64
				for i, l := range ref {
					if l == L1 {
						want |= 1 << uint(i)
					}
				}
				if u != want {
					t.Fatalf("known64(%v) = %#x, want %#x", v, u, want)
				}
			}
			if got := v.IsKnown(); got != ref.isKnown() {
				t.Fatalf("IsKnown(%v) = %v, want %v", v, got, ref.isKnown())
			}
		}

		// Structural round-trips the interpreter leans on.
		if got := a.Resize(wa); !got.Equal(a) {
			t.Fatalf("identity Resize changed %v to %v", a, got)
		}
		lo := wa / 3
		n := wa - lo
		if got := a.Slice(lo, n); got.Width() != n {
			t.Fatalf("Slice width %d, want %d", got.Width(), n)
		} else {
			for i := 0; i < n; i++ {
				if got.Bit(i) != a.Bit(lo+i) {
					t.Fatalf("Slice(%d,%d) bit %d = %v, want %v", lo, n, i, got.Bit(i), a.Bit(lo+i))
				}
			}
		}
	})
}
