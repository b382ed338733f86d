package llm

import (
	"strings"
	"testing"
)

// replaceNth and dropSemiAfter are the closures mutation sites used to
// carry, kept as the oracle for Edit.Apply: replaceNth replaces the
// n-th occurrence (0-based) of old with new, and dropSemiAfter removes
// the first ";" after the i-th occurrence of tok.
func replaceNth(src, old, new string, n int) string {
	idx := 0
	for i := 0; i <= n; i++ {
		j := strings.Index(src[idx:], old)
		if j < 0 {
			return src
		}
		idx += j
		if i < n {
			idx += len(old)
		}
	}
	return src[:idx] + new + src[idx+len(old):]
}

func dropSemiAfter(s, tok string, i int) string {
	idx := 0
	for k := 0; k <= i; k++ {
		j := strings.Index(s[idx:], tok)
		if j < 0 {
			return s
		}
		idx += j + len(tok)
	}
	semi := strings.Index(s[idx:], ";")
	if semi < 0 {
		return s
	}
	return s[:idx+semi] + s[idx+semi+1:]
}

// FuzzEditApply checks Edit.Apply against the oracle closures. The
// committed corpus (testdata/fuzz/FuzzEditApply) holds a missing
// occurrence, an occurrence past the last, an overlapping From, a Semi
// edit with no ";" after its occurrence, and an empty To.
func FuzzEditApply(f *testing.F) {
	f.Add("a <= b;\nc <= d;\n", "<= ", "", uint8(1), true)
	f.Fuzz(func(t *testing.T, src, from, to string, n uint8, semi bool) {
		e := Edit{From: from, To: to, N: int(n), Semi: semi}
		want := replaceNth(src, from, to, int(n))
		if semi {
			want = dropSemiAfter(src, from, int(n))
		}
		if got := e.Apply(src); got != want {
			t.Errorf("%+v.Apply(%q) = %q, want %q", e, src, got, want)
		}
	})
}

func TestEditApply(t *testing.T) {
	if got := (Edit{From: ".", To: "-", N: 1}).Apply("a.b.c.d"); got != "a.b-c.d" {
		t.Errorf("Edit.Apply = %q", got)
	}
	if got := (Edit{From: "x", To: "y", N: 0}).Apply("abc"); got != "abc" {
		t.Errorf("missing pattern should be no-op, got %q", got)
	}
	if got := (Edit{From: "a", To: "b", N: 5}).Apply("aa"); got != "aa" {
		t.Errorf("out-of-range occurrence should be no-op, got %q", got)
	}
}
