package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

var updateOutcomes = flag.Bool("update-outcomes", false, "rewrite testdata/outcomes.digest from the current simulators")

const outcomeDigestFile = "testdata/outcomes.digest"

// digest hashes everything a run exposes: log, VCD, event count, end
// time, stop/timeout/fault flags and the final value of every signal in
// name order.
func (o simOutcome) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "log %q\nvcd %q\nevents %d\nend %d\nflags %s\n", o.log, o.vcd, o.events, o.endTime, o.flags)
	names := make([]string, 0, len(o.final))
	for name := range o.final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "final %s=%s\n", name, o.final[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestVerilog compiles src as one unit and simulates it from top tb.
func digestVerilog(t *testing.T, name, src string) string {
	t.Helper()
	comp := compileOne(t, edatool.Verilog, name, src)
	res, err := vsim.Simulate(comp.Modules, bench.TBName, vsim.Options{CaptureFinal: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return verilogOutcome(res).digest()
}

// digestVHDL is digestVerilog through the VHDL front-end.
func digestVHDL(t *testing.T, name, src string) string {
	t.Helper()
	comp := compileOne(t, edatool.VHDL, name, src)
	res, err := vhdlsim.Simulate(comp.Units, bench.TBName, vhdlsim.Options{CaptureFinal: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return vhdlOutcome(res).digest()
}

// withDumpvars makes a Verilog testbench dump every signal, so the VCD
// pins the identifier order, which is elaboration's signal order.
func withDumpvars(tb string) string {
	return strings.Replace(tb, "module "+bench.TBName+";\n", "module "+bench.TBName+";\n  initial $dumpvars;\n", 1)
}

// selfTestVectors is the shape of a self-generated testbench: the
// input and output rows of a prefix of the reference vectors (about
// half, at least one).
func selfTestVectors(p *bench.Problem) (in, out []uint64) {
	st := p.Stimulus
	n := (st.Vectors + 1) / 2
	return st.In[:n*len(st.Inputs)], st.Out[:n*len(st.Outputs)]
}

// outcomeDigests renders one "case digest" line per pinned run.
func outcomeDigests(t *testing.T) []string {
	var lines []string
	add := func(name, digest string) { lines = append(lines, name+" "+digest) }
	for _, p := range bench.NewSuite().Problems {
		add("verilog/ref/"+p.ID, digestVerilog(t, p.ID, p.GoldenVerilog+"\n"+withDumpvars(p.RefTBVerilog)))
		add("vhdl/ref/"+p.ID, digestVHDL(t, p.ID, p.GoldenVHDL+"\n"+p.RefTBVHDL))
		add("vhdl/self/"+p.ID, digestVHDL(t, p.ID, p.GoldenVHDL+"\n"+p.VHDLTB(selfTestVectors(p))))
	}
	for i := 0; i < 24; i++ {
		src := genClusterDesign(rand.New(rand.NewSource(int64(9000 + i*131))))
		name := fmt.Sprintf("clusters-%d", i)
		add("verilog/"+name, digestVerilog(t, name, src))
	}
	add("verilog/acc", digestVerilog(t, "acc", accVerilog))
	add("vhdl/acc", digestVHDL(t, "acc", accVHDL))
	return lines
}

// TestSimOutcomeDigest pins the full outcome of every suite problem in
// both HDLs (golden RTL under its reference testbench, and in VHDL also
// under a self-generated-style testbench), of the random cluster
// designs of TestDifferentialRandomClusters, and of a design with three
// instances of one module under two parameter valuations. Unlike the
// differential harness, which compares runs within one build, the
// committed digests hold across changes to elaboration and simulation.
// Run with -update-outcomes only when an outcome change is intended.
func TestSimOutcomeDigest(t *testing.T) {
	got := outcomeDigests(t)
	if *updateOutcomes {
		if err := os.WriteFile(outcomeDigestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(outcomeDigestFile)
	if err != nil {
		t.Fatalf("outcome digests: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d cases, digest file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("outcome changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// accVerilog and accVHDL instantiate one accumulator three times: u0
// and u1 under equal parameters but different reset timing, u2 under a
// different STEP.
const accVerilog = `
module acc #(parameter W = 4, parameter STEP = 1)
            (input clk, input reset, output reg [W-1:0] q);
  always @(posedge clk) begin
    if (reset) q <= 0;
    else q <= q + STEP;
  end
endmodule
module tb;
  reg clk, r0, r1;
  wire [7:0] a, b, c;
  acc #(.W(8), .STEP(1)) u0(.clk(clk), .reset(r0), .q(a));
  acc #(.W(8), .STEP(1)) u1(.clk(clk), .reset(r1), .q(b));
  acc #(.W(8), .STEP(3)) u2(.clk(clk), .reset(r0), .q(c));
  initial $dumpvars;
  initial begin
    clk = 0; r0 = 1; r1 = 1;
    #3 r0 = 0;
    #8 r1 = 0;
    #20;
    $display("a=%d b=%d c=%d", a, b, c);
    $finish;
  end
  always #1 clk = ~clk;
endmodule`

const accVHDL = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity acc is
  generic (STEP : integer := 1);
  port (clk : in std_logic; reset : in std_logic; q : out std_logic_vector(7 downto 0));
end entity;
architecture rtl of acc is
  signal r : unsigned(7 downto 0) := (others => '0');
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        r <= (others => '0');
      else
        r <= r + STEP;
      end if;
    end if;
  end process;
  q <= std_logic_vector(r);
end architecture;

library ieee;
use ieee.std_logic_1164.all;
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal r0 : std_logic := '1';
  signal r1 : std_logic := '1';
  signal done : std_logic := '0';
  signal a, b, c : std_logic_vector(7 downto 0);
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  u0: entity work.acc generic map (STEP => 1) port map (clk => clk, reset => r0, q => a);
  u1: entity work.acc generic map (STEP => 1) port map (clk => clk, reset => r1, q => b);
  u2: entity work.acc generic map (STEP => 3) port map (clk => clk, reset => r0, q => c);
  stim: process
  begin
    wait for 3 ns;
    r0 <= '0';
    wait for 8 ns;
    r1 <= '0';
    wait for 20 ns;
    report "done";
    done <= '1';
    wait;
  end process;
end architecture;`
