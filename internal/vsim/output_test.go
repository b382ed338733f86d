package vsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/verilog"
)

func parseTestDesign(t *testing.T, src string) map[string]*verilog.Module {
	t.Helper()
	sf, diags := verilog.Parse("t.v", src)
	if diags.HasErrors() {
		t.Fatal(diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	return mods
}

// TestVCDDumpSameDeltaAsFinish pins the stop-cut boundary hook: a
// $dumpvars that shares its delta with $finish must still produce a
// waveform (the header and initial value dump, taken at the cut).
func TestVCDDumpSameDeltaAsFinish(t *testing.T) {
	mods := parseTestDesign(t, `
module tb;
  reg [3:0] n;
  initial begin
    n = 9;
    $dumpfile("x.vcd");
    $dumpvars;
    $finish;
  end
endmodule`)
	res, err := Simulate(mods, "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("did not finish: %s", res.Log)
	}
	if res.VCD == "" {
		t.Fatal("no VCD despite $dumpvars")
	}
	for _, want := range []string{"$enddefinitions $end", "$dumpvars", "b1001 "} {
		if !strings.Contains(res.VCD, want) {
			t.Errorf("VCD missing %q:\n%s", want, res.VCD)
		}
	}
}

// TestMaxOutputBoundsMergedLog pins the log cap: a design that floods
// $display from several independent modules must produce a Result.Log
// bounded by MaxOutput (plus the $finish/abort summary), and the
// capped log must be a prefix of the uncapped one.
func TestMaxOutputBoundsMergedLog(t *testing.T) {
	src := `
module noisy1; reg clk;
  initial clk = 0;
  always #1 clk = ~clk;
  always @(posedge clk) $display("one crying into the void at %0t", $time);
endmodule
module noisy2; reg clk;
  initial clk = 0;
  always #1 clk = ~clk;
  always @(posedge clk) $display("two crying into the void at %0t", $time);
endmodule
module tb;
  noisy1 a();
  noisy2 b();
  initial #4000 $finish;
endmodule`
	mods := parseTestDesign(t, src)
	const capBytes = 4096
	res, err := Simulate(mods, "tb", Options{MaxOutput: capBytes})
	if err != nil {
		t.Fatal(err)
	}
	// The cap bounds the simulation log; the $finish/abort summary
	// appended afterwards adds at most one short line.
	if len(res.Log) > capBytes+256 {
		t.Fatalf("log %d bytes exceeds cap %d", len(res.Log), capBytes)
	}
	full, err := Simulate(mods, "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Log) <= capBytes || !strings.HasPrefix(full.Log, res.Log[:capBytes]) {
		t.Errorf("capped log is not a prefix of the uncapped %d-byte log", len(full.Log))
	}
}

// TestRandomOneStreamExecutionOrder pins that a run has one $random
// stream and one log, both in execution order: two initial blocks that
// share no signals draw consecutive values from the same stream (the
// values a single block drawing twice gets), and their lines appear in
// the order the blocks ran, not grouped by block.
func TestRandomOneStreamExecutionOrder(t *testing.T) {
	one, err := Simulate(parseTestDesign(t, `
module tb;
  reg [31:0] x, y;
  initial begin x = $random; y = $random; $display("a=%0d", x); $display("b=%0d", y); end
endmodule`), "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// b is declared first, so a partition numbering components by their
	// first signal would order the second block's output first.
	two, err := Simulate(parseTestDesign(t, `
module tb;
  reg [31:0] b;
  reg [31:0] a;
  initial begin a = $random; $display("a=%0d", a); end
  initial begin b = $random; $display("b=%0d", b); end
endmodule`), "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(one.Log, "a=") || two.Log != one.Log {
		t.Errorf("two disjoint blocks logged %q, want the single-block stream %q", two.Log, one.Log)
	}
}

// TestDisplaySignedDecimal: %d, %0d and a bare $display argument render
// a signed expression as a signed decimal and an unsigned one unsigned.
func TestDisplaySignedDecimal(t *testing.T) {
	mods := parseTestDesign(t, `
module tb;
  integer i;
  reg signed [7:0] s;
  reg [7:0] u;
  initial begin
    i = -5;
    s = -3;
    u = -3;
    $display("%d %0d %d", i, s, u);
    $display(i, s, u);
    $display("%0d", s + 8'sd1);
    $finish;
  end
endmodule`)
	res, err := Simulate(mods, "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "-5 -3 253\n-5 -3 253\n-2\n"
	if !strings.HasPrefix(res.Log, want) {
		t.Errorf("log = %q, want it to start %q", res.Log, want)
	}
}

// TestRandomSigned: $random is a signed 32-bit integer (IEEE 1364
// §17.9.1) and $urandom an unsigned one. So $random % 16 lies in
// -15..15 and takes negative values, %0d prints negative draws, and
// $urandom draws print in 0..2^32-1.
func TestRandomSigned(t *testing.T) {
	res, err := Simulate(parseTestDesign(t, `
module tb;
  integer k;
  initial for (k = 0; k < 64; k = k + 1) $display("%0d %0d %0d", $random % 16, $random, $urandom);
endmodule`), "tb", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var negMod, negDraw int
	for _, line := range strings.Split(strings.TrimSpace(res.Log), "\n") {
		var m, r, u int64
		if _, err := fmt.Sscan(line, &m, &r, &u); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if m < -15 || m > 15 || r < math.MinInt32 || r > math.MaxInt32 || u < 0 || u > math.MaxUint32 {
			t.Errorf("line %q: a draw is out of range", line)
		}
		if m < 0 {
			negMod++
		}
		if r < 0 {
			negDraw++
		}
	}
	if negMod == 0 || negDraw == 0 {
		t.Errorf("64 draws: %d negative $random %% 16, %d negative $random; want some of each:\n%s", negMod, negDraw, res.Log)
	}
}
