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
	for _, c := range verilogStmtCorpus {
		add("verilog/stmt/"+c.name, digestVerilog(t, c.name, c.src))
	}
	for _, c := range vhdlStmtCorpus {
		add("vhdl/stmt/"+c.name, digestVHDL(t, c.name, c.src))
	}
	for _, c := range verilogExprCorpus() {
		if c.raw {
			add("verilog/expr/"+c.name, digestRawVerilog(t, c.name, c.src))
		} else {
			add("verilog/expr/"+c.name, digestVerilog(t, c.name, withDumpvars(c.src)))
		}
	}
	for _, c := range vhdlExprCorpus() {
		if c.raw {
			add("vhdl/expr/"+c.name, digestRawVHDL(t, c.name, c.src))
		} else {
			add("vhdl/expr/"+c.name, digestVHDL(t, c.name, c.src))
		}
	}
	return lines
}

// TestSimOutcomeDigest pins the full outcome of every suite problem in
// both HDLs (golden RTL under its reference testbench, and in VHDL also
// under a self-generated-style testbench), of the random cluster
// designs of TestDifferentialRandomClusters, of a design with three
// instances of one module under two parameter valuations, and of the
// statement-form corpus (every procedural statement, wait site and
// statement-level fault of both front-ends) and of the expression-form
// corpus (every operator, select and expression fault of both
// front-ends, expr_corpus_test.go). Unlike the
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

// stmtCase is one testbench of the statement-form corpus: a design
// whose processes exercise one group of procedural statement forms,
// their suspension points and their runtime faults.
type stmtCase struct {
	name string
	src  string
}

// verilogStmtCorpus covers every Verilog procedural statement form and
// wait site: the four loops, wait (cond) with and without a body, #d
// and @(...)/@* inside loops, a case arm that suspends, always blocks
// with and without an event control, an initial block that runs out,
// an event control on no signals, and the faults of an unknown delay
// and a wait that can never end. The runaway loop pins the statement
// at which the budget fires.
var verilogStmtCorpus = []stmtCase{
	{"loops", `
module tb;
  reg clk;
  reg [7:0] i, j, acc, a, b;
  reg [3:0] k;
  initial $dumpvars;
  initial begin clk = 0; forever #1 clk = ~clk; end
  always @(posedge clk) a <= a + 1;
  initial begin
    a = 0; acc = 0; b = 0;
    for (i = 0; i < 4; i = i + 1) begin
      @(posedge clk);
      acc = acc + i;
      $display("for i=%0d acc=%0d t=%0t", i, acc, $time);
    end
    j = 3;
    while (j != 0) begin
      #2 j = j - 1;
      $display("while j=%0d t=%0t", j, $time);
    end
    repeat (3) begin
      @(negedge clk) k = k + 1;
      $display("repeat k=%b t=%0t", k, $time);
    end
    repeat (0) $display("never");
    repeat (k) $display("never: unknown count");
    repeat (2) @* b = a + acc;
    $display("b=%0d t=%0t", b, $time);
    for (i = 0; i < 3; i = i + 1) #1;
    while (0) ;
    $finish;
  end
endmodule
`},
	{"wait-case", `
module tb;
  reg clk, go;
  reg [1:0] sel;
  reg [7:0] q;
  initial begin clk = 0; go = 0; sel = 0; q = 0; end
  always #2 clk = ~clk;
  initial begin
    #5 go = 1;
    #7 go = 0;
    #3 go = 1;
  end
  initial begin
    wait (go) $display("go seen at %0t", $time);
    wait (!go);
    $display("go low at %0t", $time);
    wait (go) begin q = 8'h5a; $display("q=%h t=%0t", q, $time); end
    wait (go) $display("already high at %0t", $time);
    repeat (4) begin
      case (sel)
        2'd0: @(posedge clk) q = q + 1;
        2'd1: #3 q = q + 2;
        2'd2: begin wait (!clk) ; q = q ^ 8'hff; end
        default: @(negedge clk);
      endcase
      $display("sel=%0d q=%h t=%0t", sel, q, $time);
      sel = sel + 1;
    end
    $finish;
  end
endmodule
`},
	{"always-initial", `
module tb;
  parameter P = 1;
  reg [3:0] a, b, c, y;
  initial $dumpvars;
  always @* y = a & b;
  always @(a or b) c = a | b;
  always begin
    #3 b = b + 1;
    @(P) $display("empty event control at %0t", $time);
  end
  initial begin
    a = 1; b = 0;
    #4 a = 2;
    @* a = a + b;
    $display("first initial ran out at %0t", $time);
  end
  initial begin
    #1 $display("a=%0d b=%0d y=%0d c=%0d", a, b, y, c);
    #9 $display("a=%0d b=%0d y=%0d c=%0d", a, b, y, c);
    #10 $finish;
  end
  always @(a) $display("a changed to %0d at %0t", a, $time);
endmodule
`},
	{"idle", `
module tb;
  reg [3:0] a, b;
  initial begin
    a = 1;
    #3 a = 2;
  end
  initial begin
    b = 0;
    #1 b = a;
    #5 b = b + a;
    $display("a=%0d b=%0d t=%0t", a, b, $time);
  end
endmodule
`},
	{"unknown-delay", `
module tb;
  reg [3:0] d;
  initial begin
    $display("before");
    #1;
    #(d) $display("after");
  end
endmodule
`},
	{"wait-never", `
module tb;
  reg r;
  initial begin
    r = 0;
    #2 $display("waiting at %0t", $time);
    wait (1'b0) r = 1;
  end
endmodule
`},
	{"runaway", `
module tb;
  reg [31:0] n;
  reg [7:0] m;
  initial begin
    n = 0; m = 0;
    #1;
    repeat (99) begin
      repeat (100000) ;
      m = m + 1;
    end
    repeat (99600) ;
    forever n = n + 1;
  end
endmodule
`},
}

// vhdlStmtCorpus covers every VHDL sequential statement form and wait
// site: ascending, descending and null-range for loops with exit and
// exit when, a loop variable shadowing a signal and another loop
// variable, while loops, every form of wait, processes with and
// without a sensitivity list, and the faults of exit outside a loop,
// empty wait sets and an unknown wait duration. The runaway loop pins
// the statement at which the budget fires.
var vhdlStmtCorpus = []stmtCase{
	{"loops", `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal i : integer := 7;
  signal acc : unsigned(7 downto 0) := (others => '0');
  signal done : std_logic := '0';
begin
  p: process
    variable s : integer := 0;
  begin
    for i in 1 to 5 loop
      s := s + i;
      exit when i = 4;
    end loop;
    report "asc s=" & s;
    report "signal i=" & i;
    for k in 10 downto 1 loop
      s := s - k;
      if k = 8 then
        exit;
      end if;
    end loop;
    report "desc s=" & s;
    for k in 3 to 1 loop
      report "never";
    end loop;
    for k in 1 downto 3 loop
      report "never";
    end loop;
    for a in 0 to 2 loop
      for b in 0 to 2 loop
        exit when b > a;
        s := s + 10 * a + b;
      end loop;
    end loop;
    report "nested s=" & s;
    for i in 0 to 1 loop
      for i in 5 to 6 loop
        s := s + i;
      end loop;
      report "outer i=" & i;
      acc <= to_unsigned(s, 8);
      wait for 1 ns;
    end loop;
    report "after shadow i=" & i;
    while s > 0 loop
      s := s - 7;
      acc <= acc + 1;
      wait for 2 ns;
      for j in 0 to 3 loop
        exit when j = 2;
        s := s - 1;
      end loop;
      exit when s < 20;
    end loop;
    report "while s=" & s;
    while s > 100 loop
      report "never";
    end loop;
    i <= 3;
    done <= '1';
    wait;
  end process;
end architecture;
`},
	{"waits", `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal a : std_logic := '0';
  signal cnt : unsigned(3 downto 0) := (others => '0');
  signal seen : unsigned(3 downto 0) := (others => '0');
  signal done : std_logic := '0';
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  cp: process(clk)
  begin
    if rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  wp: process
  begin
    wait on a;
    report "a changed";
    seen <= seen + 1;
    wait on cnt, a;
    report "cnt or a changed";
  end process;
  sp: process(a, cnt)
  begin
    if a = '1' and cnt = 9 then
      report "a high at cnt 9";
    end if;
  end process;
  stim: process
  begin
    wait for 3 ns;
    a <= '1';
    wait until cnt = 5;
    report "cnt reached 5";
    wait until rising_edge(clk);
    a <= '0';
    wait until a = '0';
    report "a low seen";
    wait until cnt = 5 for 100 ns;
    report "cnt 5 again";
    wait for 0 ns;
    done <= '1';
    wait;
  end process;
end architecture;
`},
	{"exit-outside", `
entity tb is end entity;
architecture sim of tb is
  signal r : integer := 0;
begin
  process
  begin
    r <= 1;
    wait for 2 ns;
    report "before";
    exit;
    report "after";
    wait;
  end process;
end architecture;
`},
	{"until-nothing", `
entity tb is end entity;
architecture sim of tb is
  signal r : integer := 0;
begin
  process
  begin
    wait for 1 ns;
    report "before";
    wait until 1 = 2;
    report "after";
    wait;
  end process;
end architecture;
`},
	{"on-nothing", `
entity tb is end entity;
architecture sim of tb is
  constant K : integer := 3;
  signal r : integer := 0;
begin
  process
  begin
    wait for 1 ns;
    report "before";
    wait on K;
    report "after";
    wait;
  end process;
end architecture;
`},
	{"unknown-duration", `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal d : unsigned(3 downto 0);
begin
  process
  begin
    wait for 1 ns;
    report "before";
    wait for to_integer(d) * 1 ns;
    report "after";
    wait;
  end process;
end architecture;
`},
	{"runaway", `
entity tb is end entity;
architecture sim of tb is
  signal r : integer := 0;
begin
  process
    variable n : integer := 0;
  begin
    wait for 1 ns;
    r <= 5;
    for c in 1 to 99 loop
      for k in 1 to 100000 loop
        null;
      end loop;
    end loop;
    for k in 1 to 99300 loop
      null;
    end loop;
    while true loop
      n := n + 1;
      report "n=" & n;
    end loop;
  end process;
end architecture;
`},
}
