package edatool

import (
	"fmt"
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

// TestDesignCheckoutExclusive pins the checkout discipline: an acquire
// removes the design so a concurrent run can never share it, and a
// release returns it (dropping duplicates rather than stacking them).
func TestDesignCheckoutExclusive(t *testing.T) {
	cache := NewDesignCache()
	srcs := []Source{{Name: "dut.v", Text: cacheTestDUT}, {Name: "tb.v", Text: cacheTestTB}}
	res := New(Options{Cache: cache}).Simulate(Verilog, "tb", 1000, srcs...)
	if !res.Passed {
		t.Fatalf("seed run failed:\n%s", res.Log)
	}
	key := designKey(Verilog, "tb", srcs)
	d1, ok := acquireDesign(cache, cache.vdesigns, key)
	if !ok || d1 == nil {
		t.Fatal("design not retained after release")
	}
	if d2, ok := acquireDesign(cache, cache.vdesigns, key); ok || d2 != nil {
		t.Fatal("second acquire returned the checked-out design")
	}
	releaseDesign(cache, cache.vdesigns, key, d1)
	if _, ok := acquireDesign(cache, cache.vdesigns, key); !ok {
		t.Fatal("design not available after release")
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
// identically with and without a cache (and never poison it).
func TestCompileErrorPathUncached(t *testing.T) {
	bad := []Source{{Name: "dut.v", Text: "module broken(input a; endmodule"}}
	cold := New(Options{}).Simulate(Verilog, "tb", 1000, bad...)
	cache := NewDesignCache()
	for i := 0; i < 2; i++ {
		warm := New(Options{Cache: cache}).Simulate(Verilog, "tb", 1000, bad...)
		if warm.Log != cold.Log || warm.Failed != cold.Failed {
			t.Errorf("run %d: cached compile-error result differs from cold", i)
		}
	}
}

// Whole-pipeline benchmarks: what one simulation costs the repair loop
// cold, fully warm (identical sources — the reset-and-rerun path), and
// per repair iteration (changed RTL under a frozen testbench). These
// feed BENCH_hdl.json alongside the front-end kernel benchmarks.

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
		res := New(Options{}).Simulate(Verilog, bench.TBName, 200_000, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineSimWarm(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	tc := New(Options{Cache: cache})
	if res := tc.Simulate(Verilog, bench.TBName, 200_000, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := tc.Simulate(Verilog, bench.TBName, 200_000, srcs...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}

func BenchmarkPipelineRepairIteration(b *testing.B) {
	srcs := benchProblem(b)
	cache := NewDesignCache()
	tc := New(Options{Cache: cache})
	if res := tc.Simulate(Verilog, bench.TBName, 200_000, srcs...); !res.Passed {
		b.Fatalf("prime run failed:\n%s", res.Log)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter := []Source{
			{Name: srcs[0].Name, Text: fmt.Sprintf("// iteration %d\n", i) + srcs[0].Text},
			srcs[1],
		}
		res := tc.Simulate(Verilog, bench.TBName, 200_000, iter...)
		if !res.Passed {
			b.Fatalf("run failed:\n%s", res.Log)
		}
	}
}
