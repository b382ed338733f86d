package verilog

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/lex"
)

// tokens lexes all of src, ending with lex.EOF.
func tokens(src string) []lex.Token { return lex.All(&Lexer{Cursor: lex.NewCursor(src)}, len(src)) }

// largestTB returns the largest full-coverage testbench in the suite,
// rendered from each problem's stimulus rows: the worst case the
// front-end sees for a self-generated testbench.
func largestTB() string {
	var best string
	for _, p := range bench.NewSuite().Problems {
		if tb := p.VerilogTB(p.Stimulus.In, p.Stimulus.Out); len(tb) > len(best) {
			best = tb
		}
	}
	return best
}

// parseAllocBytes returns the heap bytes one Parse of src allocates.
func parseAllocBytes(src string) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Parse("tb.v", src)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLexParseAllocLinear guards the front-end against superlinear
// cost: parsing the largest full testbench concatenated 8x may
// allocate at most 10x what one copy does. Allocated bytes are counted
// rather than wall time because they repeat exactly run to run; a lexer
// that re-copies the rest of the source per token fails by a wide
// margin.
func TestLexParseAllocLinear(t *testing.T) {
	tb := largestTB()
	var base uint64
	for _, k := range []int{1, 2, 4, 8} {
		got := parseAllocBytes(strings.Repeat(tb, k))
		t.Logf("%dx (%d bytes): %d bytes allocated", k, k*len(tb), got)
		if k == 1 {
			base = got
		}
		if k == 8 && got > 10*base {
			t.Errorf("Parse of 8x source allocated %d bytes, more than 10x the %d of 1x", got, base)
		}
	}
}

var parseSink *SourceFile

// BenchmarkParseVerilog parses the largest full testbench.
func BenchmarkParseVerilog(b *testing.B) {
	src := largestTB()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parseSink, _ = Parse("tb.v", src)
	}
}

// FuzzLexVerilog checks the lexer's structural contract on arbitrary
// input: it never panics, the stream ends in exactly one lex.EOF,
// positions never move backwards, and every token but EOF consumes at
// least one byte.
func FuzzLexVerilog(f *testing.F) {
	var srcs []string
	for _, p := range bench.NewSuite().Problems {
		srcs = append(srcs, p.GoldenVerilog, p.VerilogTB(p.Stimulus.In, p.Stimulus.Out))
	}
	sort.Slice(srcs, func(i, j int) bool { return len(srcs[i]) < len(srcs[j]) })
	for _, s := range srcs[:4] {
		f.Add(s)
	}
	f.Add("módulo \xff \\esc\xc3 16 'd12 \"a\\\"b\" $ `x\n/* open")
	f.Fuzz(func(t *testing.T, src string) {
		toks := tokens(src)
		if len(toks) > len(src)+1 {
			t.Fatalf("%d tokens from %d bytes", len(toks), len(src))
		}
		for i, tk := range toks {
			if last := i == len(toks)-1; (tk.Kind == lex.EOF) != last {
				t.Fatalf("token %d of %d is %v", i, len(toks), tk)
			}
			if i > 0 {
				prev := toks[i-1].Pos
				if tk.Pos.Line < prev.Line || tk.Pos.Line == prev.Line && tk.Pos.Col < prev.Col {
					t.Fatalf("token %d at %v precedes token %d at %v", i, tk.Pos, i-1, prev)
				}
			}
		}
	})
}
