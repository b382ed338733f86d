package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// TestArenaChunks pins the Arena's two promises: every Alloc returns
// fresh storage that no later Alloc moves or reuses, across the small
// first chunks and the full-size ones alike, and an elaboration pays
// for the signals it declares rather than for a full chunk.
func TestArenaChunks(t *testing.T) {
	var a sim.Arena[[3]int]
	ptrs := make([]*[3]int, 1000)
	seen := make(map[*[3]int]bool, len(ptrs))
	for i := range ptrs {
		p := a.Alloc()
		if *p != ([3]int{}) {
			t.Fatalf("Alloc %d returned non-zero storage %v", i, *p)
		}
		if seen[p] {
			t.Fatalf("Alloc %d returned a pointer already handed out", i)
		}
		seen[p] = true
		*p = [3]int{i, -i, 2 * i}
		ptrs[i] = p
	}
	for i, p := range ptrs {
		if *p != [3]int{i, -i, 2 * i} {
			t.Fatalf("value %d moved or was overwritten: %v", i, *p)
		}
	}

	// A 4-signal design (a, b, w, y) must not allocate a 256-signal
	// chunk: one such chunk alone is over 40 KB in either simulator.
	const maxBytes = 8 << 10
	vsf, diags := verilog.Parse("and.v", `module top(input a, input b, output y);
  wire w;
  assign w = a & b;
  assign y = ~w;
endmodule
`)
	if diags.HasErrors() {
		t.Fatalf("verilog parse: %v", diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range vsf.Modules {
		mods[m.Name] = m
	}
	hdf, diags := vhdl.Parse("and.vhd", `library ieee;
use ieee.std_logic_1164.all;
entity top is
  port (a, b : in std_logic; y : out std_logic);
end entity;
architecture rtl of top is
  signal w : std_logic;
begin
  w <= a and b;
  y <= not w;
end architecture;
`)
	if diags.HasErrors() {
		t.Fatalf("vhdl parse: %v", diags)
	}
	for _, c := range []struct {
		hdl  string
		elab func() error
	}{
		{"verilog", func() error { _, err := vsim.Elaborate(mods, "top"); return err }},
		{"vhdl", func() error { _, err := vhdlsim.Elaborate([]*vhdl.DesignFile{hdf}, "top"); return err }},
	} {
		if err := c.elab(); err != nil {
			t.Fatalf("%s elaborate: %v", c.hdl, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = c.elab()
			}
		})
		got := res.AllocedBytesPerOp()
		t.Logf("%s: %d B/op", c.hdl, got)
		if got > maxBytes {
			t.Errorf("%s: a 4-signal elaboration allocates %d B, want at most %d", c.hdl, got, maxBytes)
		}
	}
}
