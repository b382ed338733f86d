package edatool

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

const cacheTestDUT = `
module top_module(input a, input b, output y);
    assign y = a & b;
endmodule
`

const cacheTestTB = `
module tb;
  reg a, b; wire y;
  top_module dut(.a(a), .b(b), .y(y));
  initial begin
    a = 1; b = 1; #1;
    if (y !== 1'b1) $display("Test Case 1 Failed");
    else $display("All tests passed successfully!");
    $finish;
  end
endmodule
`

func TestDesignKeyOrderNormalized(t *testing.T) {
	a := Source{Name: "a.v", Text: "module a; endmodule"}
	b := Source{Name: "b.v", Text: "module b; endmodule"}
	k1 := designKey(Verilog, "tb", []Source{a, b})
	k2 := designKey(Verilog, "tb", []Source{b, a})
	if k1 != k2 {
		t.Errorf("key depends on source order:\n%s\n%s", k1, k2)
	}
	if k := designKey(Verilog, "other", []Source{a, b}); k == k1 {
		t.Error("key ignores top module")
	}
	if k := designKey(VHDL, "tb", []Source{a, b}); k == k1 {
		t.Error("key ignores language")
	}
	c := Source{Name: "a.v", Text: "module a2; endmodule"}
	if k := designKey(Verilog, "tb", []Source{c, b}); k == k1 {
		t.Error("key ignores content change")
	}
}

// sameResult requires got to equal want in every SimResult field.
func sameResult(t *testing.T, label string, want, got *SimResult) {
	t.Helper()
	if *got != *want {
		t.Errorf("%s: result differs\nwant %+v\ngot  %+v", label, *want, *got)
	}
}

// TestSimResultMemo pins the result memo over every golden design in
// both HDLs under its reference testbench: the cold run, the first
// cached run (a miss) and the second (a hit) agree in every field. The
// same sources under another max time are a different request and must
// miss rather than be served the stored result.
func TestSimResultMemo(t *testing.T) {
	suite := bench.NewSuite()
	cache := NewDesignCache()
	for _, p := range suite.Problems {
		for _, lang := range []Language{Verilog, VHDL} {
			srcs := problemSources(p, lang)
			cold := Simulate(nil, lang, bench.TBName, diffMaxTime, srcs...)
			before := cache.Stats()
			miss := Simulate(cache, lang, bench.TBName, diffMaxTime, srcs...)
			afterMiss := cache.Stats().Sub(before)
			hit := Simulate(cache, lang, bench.TBName, diffMaxTime, srcs...)
			afterHit := cache.Stats().Sub(before)
			label := p.ID + "/" + lang.String()
			sameResult(t, label+" miss", cold, miss)
			sameResult(t, label+" hit", cold, hit)
			if afterMiss.DesignHits != 0 || afterMiss.DesignMisses != 1 ||
				afterHit.DesignHits != 1 || afterHit.DesignMisses != 1 {
				t.Errorf("%s: stats after miss %+v, after hit %+v; want 0/1 then 1/1 hits/misses",
					label, afterMiss, afterHit)
			}
		}
	}

	// maxTime keys the result: the testbench times out under a small
	// limit and passes under the default one.
	srcs := problemSources(suite.ByID("counter_up_w4"), Verilog)
	const short = 20
	coldShort := Simulate(nil, Verilog, bench.TBName, short, srcs...)
	if !coldShort.TimedOut {
		t.Fatalf("counter_up_w4 did not time out at max time %d", short)
	}
	before := cache.Stats()
	warmShort := Simulate(cache, Verilog, bench.TBName, short, srcs...)
	if d := cache.Stats().Sub(before); d.DesignHits != 0 || d.DesignMisses != 1 {
		t.Errorf("a different max time did not miss: %+v", d)
	}
	sameResult(t, "short max time", coldShort, warmShort)
}

// TestBackendModeKeysResults pins that max time keys the result memo
// for sampled problems in both HDLs: the same sources under the default
// and a short max time through one cache are two misses, a repeat of
// the default request is a hit, and each result equals the cold run of
// its own request.
func TestBackendModeKeysResults(t *testing.T) {
	const short = 20
	for _, p := range sampleProblems(29) {
		for _, lang := range []Language{Verilog, VHDL} {
			t.Run(fmt.Sprintf("%s/%s", p.ID, lang), func(t *testing.T) {
				srcs := problemSources(p, lang)
				cache := NewDesignCache()
				for _, maxTime := range []uint64{diffMaxTime, short, diffMaxTime} {
					cold := Simulate(nil, lang, bench.TBName, maxTime, srcs...)
					sameResult(t, fmt.Sprintf("max time %d", maxTime), cold,
						Simulate(cache, lang, bench.TBName, maxTime, srcs...))
				}
				if st := cache.Stats(); st.DesignHits != 1 || st.DesignMisses != 2 {
					t.Errorf("stats = %+v, want 1 hit / 2 misses", st)
				}
			})
		}
	}
}

// TestSimResultMemoBounds fills the memo past both bounds: many small
// distinct designs overflow the entry bound, and testbenches that log
// up to the output cap overflow the byte bound. After every store the
// memo stays within both bounds with a consistent byte count, and
// every result, stored or served, equals its cold run.
func TestSimResultMemoBounds(t *testing.T) {
	cache := NewDesignCache()
	check := func(label string, src Source) *SimResult {
		cold := Simulate(nil, Verilog, bench.TBName, 0, src)
		for _, run := range []string{"miss", "hit"} {
			sameResult(t, label+" "+run, cold, Simulate(cache, Verilog, bench.TBName, 0, src))
		}
		cache.mu.Lock()
		defer cache.mu.Unlock()
		sum := 0
		for _, r := range cache.results {
			sum += resultSize(&r)
		}
		if len(cache.results) > maxResults || cache.resultBytes > maxResultBytes || sum != cache.resultBytes {
			t.Fatalf("%s: %d entries, %d bytes (recount %d), bounds %d entries / %d bytes",
				label, len(cache.results), cache.resultBytes, sum, maxResults, maxResultBytes)
		}
		return cold
	}
	for i := 0; i < maxResults+50; i++ {
		check(fmt.Sprintf("small %d", i), Source{Name: "tb.v", Text: fmt.Sprintf(
			"module tb; initial $display(\"variant %d\"); endmodule\n", i)})
	}
	const loud = `module tb;
  integer i;
  initial for (i = 0; i < 6000; i = i + 1)
    $display("variant %d line %%0d: %s", i);
endmodule
`
	for i := 0; i < maxResultBytes>>20+4; i++ {
		src := Source{Name: "tb.v", Text: fmt.Sprintf(loud, i, strings.Repeat("padding ", 24))}
		if res := check(fmt.Sprintf("loud %d", i), src); len(res.Log) != 1<<20 {
			t.Fatalf("loud %d logged %d bytes, want the 1 MiB output cap", i, len(res.Log))
		}
	}
}

func TestParseCacheCountsAndPointerIdentity(t *testing.T) {
	cache := NewDesignCache()
	parse := func(src Source) *verilog.SourceFile {
		sf, _ := parseUnit(cache, cache.vparse, src, verilog.Parse)
		return sf
	}
	src := Source{Name: "dut.v", Text: cacheTestDUT}
	sf1 := parse(src)
	sf2 := parse(src)
	if sf1 != sf2 {
		t.Error("identical source did not return the retained AST pointer")
	}
	// Same content under a different file name parses fresh (positions
	// embed the file name).
	if sf3 := parse(Source{Name: "other.v", Text: cacheTestDUT}); sf3 == sf1 {
		t.Error("different file name shared an AST")
	}
	// The VHDL memo is separate and counts into the same stats.
	vsrc := Source{Name: "dut.vhd", Text: "entity e is end entity;\narchitecture a of e is begin end architecture;\n"}
	df1, _ := parseUnit(cache, cache.hparse, vsrc, vhdl.Parse)
	df2, _ := parseUnit(cache, cache.hparse, vsrc, vhdl.Parse)
	if df1 != df2 {
		t.Error("identical VHDL source did not return the retained AST pointer")
	}
	st := cache.Stats()
	if st.ParseHits != 2 || st.ParseMisses != 3 {
		t.Errorf("stats = %+v, want 2 hits / 3 misses", st)
	}
}

func TestCacheStatsSub(t *testing.T) {
	a := CacheStats{DesignHits: 5, DesignMisses: 3, ParseHits: 10, ParseMisses: 2}
	b := CacheStats{DesignHits: 2, DesignMisses: 1, ParseHits: 4, ParseMisses: 1}
	got := a.Sub(b)
	want := CacheStats{DesignHits: 3, DesignMisses: 2, ParseHits: 6, ParseMisses: 1}
	if got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}

// TestCompileErrorPathUncached pins that compile failures behave
// identically with and without a cache: the memoized failure a second
// run is served equals the cold one.
func TestCompileErrorPathUncached(t *testing.T) {
	bad := []Source{{Name: "dut.v", Text: "module broken(input a; endmodule"}}
	cold := Simulate(nil, Verilog, "tb", 1000, bad...)
	cache := NewDesignCache()
	for i := 0; i < 2; i++ {
		warm := Simulate(cache, Verilog, "tb", 1000, bad...)
		if warm.Log != cold.Log || warm.Failed != cold.Failed {
			t.Errorf("run %d: cached compile-error result differs from cold", i)
		}
	}
}

// Whole-pipeline benchmarks: what one simulation costs the repair loop
// cold, fully warm (identical sources — a result-memo hit that runs
// nothing), and per repair iteration (changed RTL under a frozen
// testbench). These feed BENCH_hdl.json alongside the front-end kernel
// benchmarks.

func benchProblem(b *testing.B) []Source {
	b.Helper()
	p := bench.NewSuite().ByID("counter_up_w4")
	if p == nil {
		b.Fatal("problem counter_up_w4 not in suite")
	}
	return []Source{
		{Name: "dut.v", Text: p.GoldenVerilog},
		{Name: "tb.v", Text: p.RefTBVerilog},
	}
}

func BenchmarkPipelineSimCold(b *testing.B) {
	srcs := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Simulate(nil, Verilog, bench.TBName, 200_000, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineSimWarm(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	if res := Simulate(cache, Verilog, bench.TBName, 200_000, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Simulate(cache, Verilog, bench.TBName, 200_000, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineRepairIteration(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	if res := Simulate(cache, Verilog, bench.TBName, 200_000, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := []Source{
			{Name: srcs[0].Name, Text: fmt.Sprintf("// iteration %d\n", i) + srcs[0].Text},
			srcs[1],
		}
		res := Simulate(cache, Verilog, bench.TBName, 200_000, iter...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}
