package hdl

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Vector is an arbitrary-width 4-state bit-vector stored in a packed
// two-plane encoding (the classic simulator aval/bval scheme): for each
// 64-bit span, one word of plane A and one word of plane B. Bit i of a
// plane lives at word i/64, offset i%64, little-endian. The planes
// combine per bit as Logic(a | b<<1), which the numeric Logic encoding
// is chosen to make trivial:
//
//	a=0 b=0 -> L0    a=1 b=0 -> L1
//	a=0 b=1 -> LX    a=1 b=1 -> LZ
//
// So plane B is exactly the "unknown" (X/Z) mask, and a vector is fully
// known iff plane B is all zero — one word-compare per 64 bits.
//
// Storage comes in two layouts, discriminated by p:
//
//   - width <= 64: the planes live INLINE in the ia/ib fields and p is
//     nil. A small vector is a plain value — copying it copies the
//     bits, there is no shared storage and no aliasing, and building
//     one never touches the heap. This is the representation of nearly
//     every vector a simulation touches (RTL signals are rarely wider
//     than 64 bits), which is what makes the interpreter hot loop
//     allocation-free.
//
//   - width > 64: a single backing slice p of 2*words(width) words,
//     plane A first, then plane B. Wide vectors are immutable by
//     convention once published (see SetBit), so width-preserving
//     Resize/Slice may return storage-sharing aliases.
//
// Invariant (both layouts): bits at positions >= width in the top word
// of each plane are always zero ("canonical"), so whole-value equality,
// zero tests, and unsigned compares are plain word loops.
//
// A zero-length Vector is invalid as an operand; constructors never
// produce one.
type Vector struct {
	width  int
	ia, ib uint64 // inline planes A/B when width <= 64 (p == nil)
	p      []uint64
}

// words returns the number of 64-bit words covering width bits.
func words(width int) int { return (width + 63) >> 6 }

// topMask returns the valid-bit mask for the top word of a plane.
func topMask(width int) uint64 {
	if r := uint(width) & 63; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// lowMask returns a mask of the low n bits (n clamped to [0, 64]).
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// small returns an inline vector of 1 <= width <= 64 bits with the
// given plane words, masking away non-canonical high bits.
func small(width int, a, b uint64) Vector {
	m := topMask(width)
	return Vector{width: width, ia: a & m, ib: b & m}
}

// alloc returns an all-zero (all-L0) vector of the given width.
func alloc(width int) Vector {
	if width < 1 {
		width = 1
	}
	if width <= 64 {
		return Vector{width: width}
	}
	return Vector{width: width, p: make([]uint64, 2*words(width))}
}

// nw returns the per-plane word count.
func (v Vector) nw() int { return words(v.width) }

// aword and uword return plane-A / plane-B word i, zero (known L0) past
// the end — which is exactly Verilog zero-extension, so mixed-width
// word loops need no explicit resize. Both handle either layout.
func (v Vector) aword(i int) uint64 {
	if v.p == nil {
		if i == 0 {
			return v.ia
		}
		return 0
	}
	if i < v.nw() {
		return v.p[i]
	}
	return 0
}

func (v Vector) uword(i int) uint64 {
	if v.p == nil {
		if i == 0 {
			return v.ib
		}
		return 0
	}
	if n := v.nw(); i < n {
		return v.p[n+i]
	}
	return 0
}

// planeA returns v's plane-A words as a slice, spilling a small
// vector's inline word into buf. Wide-result word loops hoist the
// storage-layout discrimination out of the loop by grabbing both
// operands' planes once and indexing them via word, instead of paying
// the p==nil branch inside aword on every iteration. buf must outlive
// the returned slice; both planeA and planeB inline, so buf never
// escapes to the heap.
func (v Vector) planeA(buf *[1]uint64) []uint64 {
	if v.p != nil {
		return v.p[:v.nw()]
	}
	buf[0] = v.ia
	return buf[:]
}

// planeB is planeA for the unknown (X/Z) plane.
func (v Vector) planeB(buf *[1]uint64) []uint64 {
	if v.p != nil {
		n := v.nw()
		return v.p[n : 2*n]
	}
	buf[0] = v.ib
	return buf[:]
}

// word returns p[i], zero past the end — the same Verilog
// zero-extension aword/uword provide, as a plain slice probe.
func word(p []uint64, i int) uint64 {
	if i < len(p) {
		return p[i]
	}
	return 0
}

// atA / atB return the 64 bits of plane A / B starting at bit position
// bit (bit >= 0), zero-filled past the end. They are the word-at-a-time
// readers behind cross-word bit copies, and work on either layout.
func (v Vector) atA(bit int) uint64 {
	w, off := bit>>6, uint(bit)&63
	x := v.aword(w) >> off
	if off != 0 {
		x |= v.aword(w+1) << (64 - off)
	}
	return x
}

func (v Vector) atB(bit int) uint64 {
	w, off := bit>>6, uint(bit)&63
	x := v.uword(w) >> off
	if off != 0 {
		x |= v.uword(w+1) << (64 - off)
	}
	return x
}

// maskTop restores the canonical form of a wide vector after plane
// writes (small vectors are masked by their constructors).
func (v Vector) maskTop() {
	n := v.nw()
	m := topMask(v.width)
	v.p[n-1] &= m
	v.p[2*n-1] &= m
}

// known64 reports whether v is fully known and at most 64 bits wide,
// returning its value. This is the fast-path guard: small vectors keep
// their planes in registers, so it is a nil check and a word test.
func (v Vector) known64() (uint64, bool) {
	if v.p != nil || v.width == 0 || v.ib != 0 {
		return 0, false
	}
	return v.ia, true
}

// NewVector returns a width-bit vector with every bit set to fill.
func NewVector(width int, fill Logic) Vector {
	var af, bf uint64
	if fill&1 != 0 {
		af = ^uint64(0)
	}
	if fill&2 != 0 {
		bf = ^uint64(0)
	}
	if width <= 64 {
		if width < 1 {
			width = 1
		}
		return small(width, af, bf)
	}
	out := alloc(width)
	n := out.nw()
	for i := 0; i < n; i++ {
		out.p[i] = af
		out.p[n+i] = bf
	}
	out.maskTop()
	return out
}

// FromUint returns a width-bit vector holding v truncated to width bits.
func FromUint(v uint64, width int) Vector {
	if width <= 64 {
		if width < 1 {
			width = 1
		}
		return small(width, v, 0)
	}
	out := alloc(width)
	out.p[0] = v
	return out
}

// FromInt returns a width-bit two's-complement vector holding v
// truncated to 64 bits (wider vectors zero-fill above bit 63).
func FromInt(v int64, width int) Vector {
	return FromUint(uint64(v), width)
}

// FromBool returns a 1-bit vector: 1 if b else 0.
func FromBool(b bool) Vector { return Scalar(boolLogic(b)) }

// Scalar returns a 1-bit vector holding l.
func Scalar(l Logic) Vector {
	return Vector{width: 1, ia: uint64(l & 1), ib: uint64(l >> 1)}
}

// FromLogic returns a vector whose bit i is bits[i] (LSB first).
func FromLogic(bits ...Logic) Vector {
	if len(bits) == 0 {
		return Scalar(LX)
	}
	out := alloc(len(bits))
	for i, l := range bits {
		out.SetBit(i, l)
	}
	return out
}

// Width returns the number of bits.
func (v Vector) Width() int { return v.width }

// Clone returns a deep copy of v. For small vectors the value itself is
// already a deep copy.
func (v Vector) Clone() Vector {
	if v.p == nil {
		return v
	}
	p := make([]uint64, len(v.p))
	copy(p, v.p)
	return Vector{width: v.width, p: p}
}

// Bit returns bit i, or LX when i is out of range (Verilog out-of-bounds
// select semantics).
func (v Vector) Bit(i int) Logic {
	if i < 0 || i >= v.width {
		return LX
	}
	if v.p == nil {
		off := uint(i)
		return Logic((v.ia>>off)&1 | ((v.ib>>off)&1)<<1)
	}
	w, off := i>>6, uint(i)&63
	a := (v.p[w] >> off) & 1
	b := (v.p[v.nw()+w] >> off) & 1
	return Logic(a | b<<1)
}

// SetBit sets bit i of v in place; out-of-range indices are ignored.
// For wide vectors the mutation is visible through every alias of v's
// storage, and Resize/Slice return aliases for width-preserving calls —
// so SetBit must only be used while building a vector that has not been
// published yet (freshly allocated, or a fresh Clone). Small vectors
// are plain values: the receiver must be addressable and only that
// value changes.
func (v *Vector) SetBit(i int, l Logic) {
	if i < 0 || i >= v.width {
		return
	}
	if v.p == nil {
		bit := uint64(1) << uint(i)
		if l&1 != 0 {
			v.ia |= bit
		} else {
			v.ia &^= bit
		}
		if l&2 != 0 {
			v.ib |= bit
		} else {
			v.ib &^= bit
		}
		return
	}
	w, off := i>>6, uint(i)&63
	n := v.nw()
	bit := uint64(1) << off
	if l&1 != 0 {
		v.p[w] |= bit
	} else {
		v.p[w] &^= bit
	}
	if l&2 != 0 {
		v.p[n+w] |= bit
	} else {
		v.p[n+w] &^= bit
	}
}

// IsKnown reports whether every bit is 0 or 1.
func (v Vector) IsKnown() bool {
	if v.p == nil {
		return v.ib == 0
	}
	n := v.nw()
	for _, w := range v.p[n:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether every bit is known zero.
func (v Vector) IsZero() bool {
	if v.p == nil {
		return v.ia|v.ib == 0
	}
	for _, w := range v.p {
		if w != 0 {
			return false
		}
	}
	return true
}

// Uint returns the value as a uint64, treating X/Z bits as zero and
// truncating to 64 bits. ok is false when any bit is unknown.
func (v Vector) Uint() (val uint64, ok bool) {
	return v.aword(0) &^ v.uword(0), v.IsKnown()
}

// Int returns the value interpreted as a signed two's-complement number
// of v's width. ok is false when any bit is unknown.
func (v Vector) Int() (val int64, ok bool) {
	u, ok := v.Uint()
	if !ok {
		return 0, false
	}
	w := v.width
	if w >= 64 {
		return int64(u), true
	}
	if u&(1<<uint(w-1)) != 0 { // sign bit set: extend
		u |= ^uint64(0) << uint(w)
	}
	return int64(u), true
}

// Resize returns v zero-extended or truncated to width bits. When the
// width already matches, v itself is returned without copying — a free
// value copy for small vectors, a storage-sharing alias for wide ones
// (safe because wide Vectors are immutable by convention; see SetBit).
func (v Vector) Resize(width int) Vector {
	if width == v.width {
		return v
	}
	if width <= 64 {
		return small(width, v.aword(0), v.uword(0))
	}
	out := alloc(width)
	on := out.nw()
	if v.p == nil {
		out.p[0] = v.ia
		out.p[on] = v.ib
		return out
	}
	n := v.nw()
	c := n
	if on < c {
		c = on
	}
	copy(out.p[:c], v.p[:c])
	copy(out.p[on:on+c], v.p[n:n+c])
	out.maskTop()
	return out
}

// SignExtend returns v sign-extended (MSB-replicated) or truncated to width.
func (v Vector) SignExtend(width int) Vector {
	if width <= v.width {
		return v.Resize(width)
	}
	fill := v.Bit(v.width - 1)
	if width <= 64 {
		// v.width < width <= 64, so v is small.
		ext := ^uint64(0) << uint(v.width)
		a, b := v.ia, v.ib
		if fill&1 != 0 {
			a |= ext
		}
		if fill&2 != 0 {
			b |= ext
		}
		return small(width, a, b)
	}
	out := NewVector(width, fill)
	out.blit(0, v, 0, v.width)
	return out
}

// XFill returns a width-bit vector of all X.
func XFill(width int) Vector { return NewVector(width, LX) }

// writeBits writes the low n (1 <= n <= 64) bits of val into the plane
// words dst starting at bit dstBit.
func writeBits(dst []uint64, dstBit int, val uint64, n int) {
	for n > 0 {
		w, off := dstBit>>6, uint(dstBit)&63
		chunk := 64 - off
		if c := uint(n); c < chunk {
			chunk = c
		}
		mask := lowMask(int(chunk))
		dst[w] = dst[w]&^(mask<<off) | (val&mask)<<off
		val >>= chunk
		dstBit += int(chunk)
		n -= int(chunk)
	}
}

// blit copies n bits of src (from srcBit, srcBit >= 0) into v (at
// dstBit), both planes. v must be a wide (slice-backed) vector — small
// results are assembled inline by their operations — while src may use
// either layout. Caller guarantees the destination range is in bounds;
// source reads past src's width yield zero.
func (v Vector) blit(dstBit int, src Vector, srcBit, n int) {
	if n <= 0 {
		return
	}
	vn := v.nw()
	for n > 0 {
		chunk := 64
		if n < chunk {
			chunk = n
		}
		writeBits(v.p[:vn], dstBit, src.atA(srcBit), chunk)
		writeBits(v.p[vn:], dstBit, src.atB(srcBit), chunk)
		srcBit += chunk
		dstBit += chunk
		n -= chunk
	}
}

// bigInt converts a fully-known vector to a non-negative big.Int.
// big.Word is uint-sized, so the 64-bit plane words are split on
// 32-bit GOARCHes; planeToWords is parameterized over the word size so
// both layouts are testable on any host (see vector_32bit_test.go).
func (v Vector) bigInt() *big.Int {
	n := v.nw()
	known := make([]uint64, n)
	for i := 0; i < n; i++ {
		known[i] = v.aword(i) &^ v.uword(i)
	}
	return new(big.Int).SetBits(planeToWords(known, bits.UintSize))
}

// planeToWords reinterprets little-endian uint64 plane words as
// big.Words of the given bit size (64 or 32). On 64-bit hosts it is an
// element-wise copy; on 32-bit hosts each plane word yields two.
func planeToWords(plane []uint64, wordBits int) []big.Word {
	if wordBits == 64 {
		ws := make([]big.Word, len(plane))
		for i, w := range plane {
			ws[i] = big.Word(w)
		}
		return ws
	}
	ws := make([]big.Word, 2*len(plane))
	for i, w := range plane {
		ws[2*i] = big.Word(uint32(w))
		ws[2*i+1] = big.Word(uint32(w >> 32))
	}
	return ws
}

// fromBig builds a width-bit vector from the low bits of n (n >= 0).
func fromBig(n *big.Int, width int) Vector {
	if width <= 64 {
		var plane [1]uint64
		wordsToPlane(plane[:], n.Bits(), bits.UintSize)
		if width < 1 {
			width = 1
		}
		return small(width, plane[0], 0)
	}
	out := alloc(width)
	wordsToPlane(out.p[:out.nw()], n.Bits(), bits.UintSize)
	out.maskTop()
	return out
}

// wordsToPlane packs little-endian big.Words of the given bit size
// into uint64 plane words, truncating excess input.
func wordsToPlane(plane []uint64, ws []big.Word, wordBits int) {
	if wordBits == 64 {
		for i := 0; i < len(plane) && i < len(ws); i++ {
			plane[i] = uint64(ws[i])
		}
		return
	}
	for i := range ws {
		pi := i / 2
		if pi >= len(plane) {
			break
		}
		half := uint64(uint32(ws[i]))
		if i%2 == 0 {
			plane[pi] |= half
		} else {
			plane[pi] |= half << 32
		}
	}
}

// Add returns a+b at width max(len a, len b), Verilog unsigned semantics.
// Any unknown operand bit makes the whole result X.
func (a Vector) Add(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if x, ok := a.known64(); ok {
		if y, ok2 := b.known64(); ok2 {
			return small(w, x+y, 0)
		}
	}
	if !a.IsKnown() || !b.IsKnown() {
		return XFill(w)
	}
	out := alloc(w)
	n := out.nw()
	var abuf, bbuf [1]uint64
	ap, bp := a.planeA(&abuf), b.planeA(&bbuf)
	var carry uint64
	for i := 0; i < n; i++ {
		out.p[i], carry = bits.Add64(word(ap, i), word(bp, i), carry)
	}
	out.maskTop()
	return out
}

// Sub returns a-b (two's complement wraparound).
func (a Vector) Sub(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if x, ok := a.known64(); ok {
		if y, ok2 := b.known64(); ok2 {
			return small(w, x-y, 0)
		}
	}
	if !a.IsKnown() || !b.IsKnown() {
		return XFill(w)
	}
	out := alloc(w)
	n := out.nw()
	var abuf, bbuf [1]uint64
	ap, bp := a.planeA(&abuf), b.planeA(&bbuf)
	var borrow uint64
	for i := 0; i < n; i++ {
		out.p[i], borrow = bits.Sub64(word(ap, i), word(bp, i), borrow)
	}
	out.maskTop()
	return out
}

// Mul returns a*b truncated to max width.
func (a Vector) Mul(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if x, ok := a.known64(); ok {
		if y, ok2 := b.known64(); ok2 {
			return small(w, x*y, 0)
		}
	}
	if !a.IsKnown() || !b.IsKnown() {
		return XFill(w)
	}
	x, y := a.bigInt(), b.bigInt()
	return fromBig(x.Mul(x, y), w)
}

// Div returns a/b; division by zero yields all-X (Verilog semantics).
func (a Vector) Div(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if x, ok := a.known64(); ok {
		if y, ok2 := b.known64(); ok2 && y != 0 {
			return small(w, x/y, 0)
		}
	}
	if !a.IsKnown() || !b.IsKnown() || b.IsZero() {
		return XFill(w)
	}
	x, y := a.bigInt(), b.bigInt()
	return fromBig(x.Div(x, y), w)
}

// Mod returns a%b; modulo by zero yields all-X.
func (a Vector) Mod(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if x, ok := a.known64(); ok {
		if y, ok2 := b.known64(); ok2 && y != 0 {
			return small(w, x%y, 0)
		}
	}
	if !a.IsKnown() || !b.IsKnown() || b.IsZero() {
		return XFill(w)
	}
	x, y := a.bigInt(), b.bigInt()
	return fromBig(x.Mod(x, y), w)
}

// Pow returns a**b truncated to a's width.
func (a Vector) Pow(b Vector) Vector {
	w := a.width
	if !a.IsKnown() || !b.IsKnown() {
		return XFill(w)
	}
	e, ok := b.Uint()
	if !ok || e > 4096 {
		return XFill(w)
	}
	if x, ok := a.known64(); ok {
		// Square-and-multiply in uint64; wraparound mod 2^64 reduces
		// correctly to mod 2^w for any w <= 64.
		r := uint64(1)
		for e > 0 {
			if e&1 != 0 {
				r *= x
			}
			x *= x
			e >>= 1
		}
		return small(w, r, 0)
	}
	x := a.bigInt()
	mod := new(big.Int).Lsh(big.NewInt(1), uint(w))
	return fromBig(x.Exp(x, new(big.Int).SetUint64(e), mod), w)
}

// Neg returns two's-complement negation at v's width.
func (v Vector) Neg() Vector {
	return NewVector(v.width, L0).Sub(v)
}

// BitwiseNot returns ~v: known bits invert, X/Z become X.
func (v Vector) BitwiseNot() Vector {
	if v.p == nil {
		return small(v.width, ^v.ia&^v.ib, v.ib)
	}
	out := alloc(v.width)
	n := out.nw()
	for i := 0; i < n; i++ {
		u := v.p[n+i]
		out.p[i] = ^v.p[i] &^ u
		out.p[n+i] = u
	}
	out.maskTop()
	return out
}

// Bitwise operations work word-at-a-time on the planes regardless of
// X/Z content. Per word, "one" is the known-1 mask (a &^ b) and "zero"
// the known-0 mask (^a &^ b); everything else is X. Operands
// zero-extend to the max width via aword/uword. A max width <= 64
// implies both operands are small, so the single-word case runs
// entirely in registers.

// BitwiseAnd returns a & b.
func (a Vector) BitwiseAnd(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if w <= 64 {
		one := (a.ia &^ a.ib) & (b.ia &^ b.ib)
		zero := (^a.ia &^ a.ib) | (^b.ia &^ b.ib)
		return small(w, one, ^(one | zero))
	}
	out := alloc(w)
	n := out.nw()
	var a1buf, u1buf, a2buf, u2buf [1]uint64
	ap, up := a.planeA(&a1buf), a.planeB(&u1buf)
	bp, vp := b.planeA(&a2buf), b.planeB(&u2buf)
	for i := 0; i < n; i++ {
		a1, u1 := word(ap, i), word(up, i)
		a2, u2 := word(bp, i), word(vp, i)
		one := (a1 &^ u1) & (a2 &^ u2)
		zero := (^a1 &^ u1) | (^a2 &^ u2)
		out.p[i] = one
		out.p[n+i] = ^(one | zero)
	}
	out.maskTop()
	return out
}

// BitwiseOr returns a | b.
func (a Vector) BitwiseOr(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if w <= 64 {
		one := (a.ia &^ a.ib) | (b.ia &^ b.ib)
		zero := (^a.ia &^ a.ib) & (^b.ia &^ b.ib)
		return small(w, one, ^(one | zero))
	}
	out := alloc(w)
	n := out.nw()
	var a1buf, u1buf, a2buf, u2buf [1]uint64
	ap, up := a.planeA(&a1buf), a.planeB(&u1buf)
	bp, vp := b.planeA(&a2buf), b.planeB(&u2buf)
	for i := 0; i < n; i++ {
		a1, u1 := word(ap, i), word(up, i)
		a2, u2 := word(bp, i), word(vp, i)
		one := (a1 &^ u1) | (a2 &^ u2)
		zero := (^a1 &^ u1) & (^a2 &^ u2)
		out.p[i] = one
		out.p[n+i] = ^(one | zero)
	}
	out.maskTop()
	return out
}

// BitwiseXor returns a ^ b.
func (a Vector) BitwiseXor(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if w <= 64 {
		known := ^(a.ib | b.ib)
		return small(w, (a.ia^b.ia)&known, ^known)
	}
	out := alloc(w)
	n := out.nw()
	var a1buf, u1buf, a2buf, u2buf [1]uint64
	ap, up := a.planeA(&a1buf), a.planeB(&u1buf)
	bp, vp := b.planeA(&a2buf), b.planeB(&u2buf)
	for i := 0; i < n; i++ {
		known := ^(word(up, i) | word(vp, i))
		out.p[i] = (word(ap, i) ^ word(bp, i)) & known
		out.p[n+i] = ^known
	}
	out.maskTop()
	return out
}

// BitwiseXnor returns a ~^ b.
func (a Vector) BitwiseXnor(b Vector) Vector {
	w := maxInt(a.width, b.width)
	if w <= 64 {
		known := ^(a.ib | b.ib)
		return small(w, ^(a.ia^b.ia)&known, ^known)
	}
	out := alloc(w)
	n := out.nw()
	var a1buf, u1buf, a2buf, u2buf [1]uint64
	ap, up := a.planeA(&a1buf), a.planeB(&u1buf)
	bp, vp := b.planeA(&a2buf), b.planeB(&u2buf)
	for i := 0; i < n; i++ {
		known := ^(word(up, i) | word(vp, i))
		out.p[i] = ^(word(ap, i) ^ word(bp, i)) & known
		out.p[n+i] = ^known
	}
	out.maskTop()
	return out
}

// ToBool reduces v for use in a condition: L1 if any bit is known 1,
// L0 if all bits are known 0, LX otherwise.
func (v Vector) ToBool() Logic {
	if v.p == nil {
		if v.ia&^v.ib != 0 {
			return L1
		}
		if v.ib != 0 {
			return LX
		}
		return L0
	}
	n := v.nw()
	sawU := false
	for i := 0; i < n; i++ {
		u := v.p[n+i]
		if v.p[i]&^u != 0 {
			return L1
		}
		if u != 0 {
			sawU = true
		}
	}
	if sawU {
		return LX
	}
	return L0
}

// LogicalNot returns !v as a 1-bit vector.
func (v Vector) LogicalNot() Vector { return Scalar(v.ToBool().Not()) }

// LogicalAnd returns a && b as a 1-bit vector.
func (a Vector) LogicalAnd(b Vector) Vector { return Scalar(a.ToBool().And(b.ToBool())) }

// LogicalOr returns a || b as a 1-bit vector.
func (a Vector) LogicalOr(b Vector) Vector { return Scalar(a.ToBool().Or(b.ToBool())) }

// Eq returns a == b (1-bit, X if any operand bit unknown).
func (a Vector) Eq(b Vector) Vector {
	if !a.IsKnown() || !b.IsKnown() {
		return Scalar(LX)
	}
	n := words(maxInt(a.width, b.width))
	var abuf, bbuf [1]uint64
	ap, bp := a.planeA(&abuf), b.planeA(&bbuf)
	for i := 0; i < n; i++ {
		if word(ap, i) != word(bp, i) {
			return FromBool(false)
		}
	}
	return FromBool(true)
}

// Neq returns a != b.
func (a Vector) Neq(b Vector) Vector { return a.Eq(b).LogicalNot() }

// CaseEq returns a === b: exact 4-state comparison, always 0 or 1.
// Shorter operands zero-extend (L0 fill), matching Resize semantics.
func (a Vector) CaseEq(b Vector) Vector {
	n := words(maxInt(a.width, b.width))
	var a1buf, u1buf, a2buf, u2buf [1]uint64
	ap, up := a.planeA(&a1buf), a.planeB(&u1buf)
	bp, vp := b.planeA(&a2buf), b.planeB(&u2buf)
	for i := 0; i < n; i++ {
		if word(ap, i) != word(bp, i) || word(up, i) != word(vp, i) {
			return FromBool(false)
		}
	}
	return FromBool(true)
}

// CaseNeq returns a !== b.
func (a Vector) CaseNeq(b Vector) Vector { return a.CaseEq(b).LogicalNot() }

// cmp returns -1, 0, +1 comparing unsigned values; ok=false on unknowns.
func (a Vector) cmp(b Vector) (int, bool) {
	if !a.IsKnown() || !b.IsKnown() {
		return 0, false
	}
	var abuf, bbuf [1]uint64
	ap, bp := a.planeA(&abuf), b.planeA(&bbuf)
	for i := words(maxInt(a.width, b.width)) - 1; i >= 0; i-- {
		x, y := word(ap, i), word(bp, i)
		if x != y {
			if x < y {
				return -1, true
			}
			return 1, true
		}
	}
	return 0, true
}

// Lt returns a < b (unsigned).
func (a Vector) Lt(b Vector) Vector {
	c, ok := a.cmp(b)
	if !ok {
		return Scalar(LX)
	}
	return FromBool(c < 0)
}

// Le returns a <= b (unsigned).
func (a Vector) Le(b Vector) Vector {
	c, ok := a.cmp(b)
	if !ok {
		return Scalar(LX)
	}
	return FromBool(c <= 0)
}

// Gt returns a > b (unsigned).
func (a Vector) Gt(b Vector) Vector {
	c, ok := a.cmp(b)
	if !ok {
		return Scalar(LX)
	}
	return FromBool(c > 0)
}

// Ge returns a >= b (unsigned).
func (a Vector) Ge(b Vector) Vector {
	c, ok := a.cmp(b)
	if !ok {
		return Scalar(LX)
	}
	return FromBool(c >= 0)
}

// Shl returns a << b (logical, zero fill) at a's width.
func (a Vector) Shl(b Vector) Vector {
	n, ok := b.Uint()
	if !ok {
		return XFill(a.width)
	}
	if a.p == nil {
		if n >= 64 {
			return small(a.width, 0, 0)
		}
		return small(a.width, a.ia<<n, a.ib<<n)
	}
	out := alloc(a.width)
	if n < uint64(a.width) {
		out.blit(int(n), a, 0, a.width-int(n))
	}
	return out
}

// Shr returns a >> b (logical, zero fill) at a's width.
func (a Vector) Shr(b Vector) Vector {
	n, ok := b.Uint()
	if !ok {
		return XFill(a.width)
	}
	if a.p == nil {
		if n >= 64 {
			return small(a.width, 0, 0)
		}
		return small(a.width, a.ia>>n, a.ib>>n)
	}
	out := alloc(a.width)
	if n < uint64(a.width) {
		out.blit(0, a, int(n), a.width-int(n))
	}
	return out
}

// AShr returns a >>> b (arithmetic, sign fill) at a's width.
func (a Vector) AShr(b Vector) Vector {
	n, ok := b.Uint()
	if !ok {
		return XFill(a.width)
	}
	fill := a.Bit(a.width - 1)
	if a.p == nil {
		sh := n
		if sh > uint64(a.width) {
			sh = uint64(a.width)
		}
		va, vb := a.ia>>sh, a.ib>>sh
		if sh > 0 {
			var fa, fb uint64
			if fill&1 != 0 {
				fa = ^uint64(0)
			}
			if fill&2 != 0 {
				fb = ^uint64(0)
			}
			fm := ^uint64(0) << uint(uint64(a.width)-sh)
			va = va&^fm | fa&fm
			vb = vb&^fm | fb&fm
		}
		return small(a.width, va, vb)
	}
	out := NewVector(a.width, fill)
	if n < uint64(a.width) {
		out.blit(0, a, int(n), a.width-int(n))
	}
	return out
}

// ReduceAnd returns &v: L0 if any bit is known 0, else LX on any
// unknown, else L1.
func (v Vector) ReduceAnd() Vector {
	if v.p == nil {
		if ^v.ia&^v.ib&topMask(v.width) != 0 {
			return Scalar(L0)
		}
		if v.ib != 0 {
			return Scalar(LX)
		}
		return Scalar(L1)
	}
	n := v.nw()
	m := topMask(v.width)
	sawU := false
	for i := 0; i < n; i++ {
		valid := ^uint64(0)
		if i == n-1 {
			valid = m
		}
		if ^v.p[i]&^v.p[n+i]&valid != 0 {
			return Scalar(L0)
		}
		if v.p[n+i] != 0 {
			sawU = true
		}
	}
	if sawU {
		return Scalar(LX)
	}
	return Scalar(L1)
}

// ReduceOr returns |v.
func (v Vector) ReduceOr() Vector {
	if v.p == nil {
		if v.ia&^v.ib != 0 {
			return Scalar(L1)
		}
		if v.ib != 0 {
			return Scalar(LX)
		}
		return Scalar(L0)
	}
	n := v.nw()
	sawU := false
	for i := 0; i < n; i++ {
		if v.p[i]&^v.p[n+i] != 0 {
			return Scalar(L1)
		}
		if v.p[n+i] != 0 {
			sawU = true
		}
	}
	if sawU {
		return Scalar(LX)
	}
	return Scalar(L0)
}

// ReduceXor returns ^v.
func (v Vector) ReduceXor() Vector {
	if v.p == nil {
		if v.ib != 0 {
			return Scalar(LX)
		}
		return Scalar(Logic(bits.OnesCount64(v.ia) & 1))
	}
	n := v.nw()
	parity := 0
	for i := 0; i < n; i++ {
		if v.p[n+i] != 0 {
			return Scalar(LX)
		}
		parity ^= bits.OnesCount64(v.p[i]) & 1
	}
	return Scalar(Logic(parity))
}

// Concat returns {a, b}: a occupies the high bits, b the low bits,
// matching Verilog concatenation order.
func Concat(parts ...Vector) Vector {
	total := 0
	for _, p := range parts {
		total += p.Width()
	}
	if total == 0 {
		return Scalar(LX)
	}
	if total <= 64 {
		// Every part is at most total bits wide, hence small.
		var a, b uint64
		pos := uint(0)
		for i := len(parts) - 1; i >= 0; i-- { // last part is least significant
			a |= parts[i].ia << pos
			b |= parts[i].ib << pos
			pos += uint(parts[i].width)
		}
		return small(total, a, b)
	}
	out := alloc(total)
	pos := 0
	for i := len(parts) - 1; i >= 0; i-- {
		out.blit(pos, parts[i], 0, parts[i].width)
		pos += parts[i].width
	}
	return out
}

// Replicate returns {n{v}}.
func Replicate(n int, v Vector) Vector {
	if n < 1 {
		return Scalar(LX)
	}
	total := n * v.width
	if total <= 64 {
		var a, b uint64
		pos := uint(0)
		for i := 0; i < n; i++ {
			a |= v.ia << pos
			b |= v.ib << pos
			pos += uint(v.width)
		}
		return small(total, a, b)
	}
	out := alloc(total)
	for i := 0; i < n; i++ {
		out.blit(i*v.width, v, 0, v.width)
	}
	return out
}

// Slice returns bits [lo .. lo+width-1] (LSB-relative), X-filling any
// out-of-range positions. A full-width slice returns v itself (see
// Resize for the sharing convention).
func (v Vector) Slice(lo, width int) Vector {
	if width < 1 {
		return XFill(width)
	}
	if lo == 0 && width == v.width {
		return v
	}
	start, end := lo, lo+width
	if start < 0 {
		start = 0
	}
	if end > v.width {
		end = v.width
	}
	if width <= 64 {
		a, b := uint64(0), topMask(width) // all X
		if end > start {
			sh := uint(start - lo)
			m := lowMask(end-start) << sh
			a = a&^m | (v.atA(start)<<sh)&m
			b = b&^m | (v.atB(start)<<sh)&m
		}
		return small(width, a, b)
	}
	out := NewVector(width, LX)
	if end > start {
		out.blit(start-lo, v, start, end-start)
	}
	return out
}

// SetSlice writes src into v starting at LSB-relative offset lo,
// returning a new vector; out-of-range bits of src are dropped.
func (v Vector) SetSlice(lo int, src Vector) Vector {
	start, end := lo, lo+src.width
	if start < 0 {
		start = 0
	}
	if end > v.width {
		end = v.width
	}
	if v.p == nil {
		if end <= start {
			return v
		}
		sh := uint(start)
		m := lowMask(end-start) << sh
		a := v.ia&^m | (src.atA(start-lo)<<sh)&m
		b := v.ib&^m | (src.atB(start-lo)<<sh)&m
		return small(v.width, a, b)
	}
	out := v.Clone()
	if end > start {
		out.blit(start, src, start-lo, end-start)
	}
	return out
}

// Equal reports exact 4-state equality of a and b including width.
// Equal widths imply the same storage layout, so each arm compares
// like with like.
func (a Vector) Equal(b Vector) bool {
	if a.width != b.width {
		return false
	}
	if a.p == nil {
		return a.ia == b.ia && a.ib == b.ib
	}
	for i, w := range a.p {
		if w != b.p[i] {
			return false
		}
	}
	return true
}

// BinString renders MSB-first binary, e.g. "10x0".
func (v Vector) BinString() string {
	var sb strings.Builder
	for i := v.width - 1; i >= 0; i-- {
		sb.WriteRune(v.Bit(i).Rune())
	}
	return sb.String()
}

// HexString renders MSB-first hex; a nibble containing any X prints 'x',
// any Z (without X) prints 'z'.
func (v Vector) HexString() string {
	n := (v.width + 3) / 4
	var sb strings.Builder
	for d := n - 1; d >= 0; d-- {
		val, hasX, hasZ := 0, false, false
		for b := 0; b < 4; b++ {
			idx := d*4 + b
			if idx >= v.width {
				continue
			}
			switch v.Bit(idx) {
			case L1:
				val |= 1 << b
			case LX:
				hasX = true
			case LZ:
				hasZ = true
			}
		}
		switch {
		case hasX:
			sb.WriteByte('x')
		case hasZ:
			sb.WriteByte('z')
		default:
			sb.WriteString(fmt.Sprintf("%x", val))
		}
	}
	return sb.String()
}

// DecString renders the unsigned decimal value, or "x" if unknown.
func (v Vector) DecString() string {
	if !v.IsKnown() {
		return "x"
	}
	if u, ok := v.known64(); ok {
		return fmt.Sprintf("%d", u)
	}
	return v.bigInt().String()
}

// SignedDecString renders v in decimal as a two's-complement number of
// its width, or "x" when any bit is unknown.
func (v Vector) SignedDecString() string {
	if v.width == 0 || v.Bit(v.width-1) != L1 || !v.IsKnown() {
		return v.DecString()
	}
	return "-" + v.Neg().DecString()
}

// String implements fmt.Stringer as width'b<bits>.
func (v Vector) String() string {
	return fmt.Sprintf("%d'b%s", v.width, v.BinString())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
