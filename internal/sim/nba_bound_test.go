package sim_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/sim"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// TestNBARegionBound pins the cut of a zero-delay loop that queues an
// update on every pass: a Verilog always @* that reads no signal and
// makes a nonblocking assignment, and a VHDL process with no wait that
// assigns a signal on a path without a wait. Each ends with the run's fault line once one delta
// cycle holds sim.MaxNBA updates, allocating a bounded amount, where it
// used to queue records until the statement budget stopped it, past a
// gigabyte.
func TestNBARegionBound(t *testing.T) {
	const maxAlloc = 64 << 20
	for _, c := range []struct {
		name string
		lang edatool.Language
		src  string
	}{
		{"verilog", edatool.Verilog, `module tb;
  reg [3:0] c;
  always @* c <= $random % 16;
  initial #5 $finish;
endmodule
`},
		{"vhdl", edatool.VHDL, `library ieee;
use ieee.std_logic_1164.all;
entity tb is end entity;
architecture sim of tb is
  signal s : std_logic := '0';
begin
  process
  begin
    s <= not s;
    if s = 'Z' then
      wait;
    end if;
  end process;
end architecture;
`},
	} {
		comp := compileOne(t, c.lang, c.name, c.src)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var log string
		if c.lang == edatool.Verilog {
			log = runVerilogLog(t, comp)
		} else {
			log = runVHDLLog(t, comp)
		}
		runtime.ReadMemStats(&after)
		want := "SIMULATOR: more than 65536 updates queued in one delta cycle (zero-delay loop?)\n"
		if sim.MaxNBA != 1<<16 || !strings.HasSuffix(log, want) {
			t.Errorf("%s: log ends %q, want %q", c.name, log[max(0, len(log)-120):], want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc {
			t.Errorf("%s: run allocated %d bytes, want at most %d", c.name, alloc, maxAlloc)
		} else {
			t.Logf("%s: run allocated %d bytes", c.name, alloc)
		}
	}
}

func runVerilogLog(t *testing.T, comp *edatool.CompileResult) string {
	t.Helper()
	res, err := vsim.Simulate(comp.Modules, bench.TBName, vsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Log
}

func runVHDLLog(t *testing.T, comp *edatool.CompileResult) string {
	t.Helper()
	res, err := vhdlsim.Simulate(comp.Units, bench.TBName, vhdlsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Log
}
