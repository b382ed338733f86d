package hdl

// Two-state classification. The compiled simulation backend specializes
// processes to operate on single-plane uint64 words; it may only do so
// while every value it reads is provably two-state (no X/Z bits). These
// predicates are the cheap runtime classification that guards the fast
// path: for inline vectors they compile to a couple of register tests,
// so checking them per activation costs far less than the plane algebra
// they avoid.

// Known64 reports whether v is fully known (every bit 0 or 1 — no X/Z)
// and at most 64 bits wide, returning its value as a plain uint64. This
// is the classification the compiled backend runs per guarded signal:
// ok means the value is representable in the two-state single-plane
// domain, !ok means the process must fall back to the 4-state
// interpreter for this activation.
func (v Vector) Known64() (uint64, bool) { return v.known64() }
