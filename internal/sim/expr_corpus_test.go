package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// The expression-form corpus of TestSimOutcomeDigest: every operator of
// both HDLs at widths 1, 8, 32, 64, 65 and 128 over known, X and Z
// operands, Verilog context sizing and signedness, selects and memory
// words, VHDL numeric_std width rules, conversions, attributes and
// aggregates, and every expression-level fault. Cases marked raw skip
// the checker, because it rejects what they exercise (an undeclared
// name), so only the simulator's run-time fault can report it.

// exprCase is one testbench of the expression-form corpus.
type exprCase struct {
	name string
	src  string
	raw  bool // parsed without the checker
}

var exprWidths = []int{1, 8, 32, 64, 65, 128}

// verilogLit renders a width-bit binary literal: kind 0 random known
// bits, 1 all ones, 2 random with X and Z bits, 3 all Z, 4 zero.
func verilogLit(r *rand.Rand, w, kind int) string {
	var sb strings.Builder
	for i := 0; i < w; i++ {
		switch kind {
		case 0:
			sb.WriteByte("01"[r.Intn(2)])
		case 1:
			sb.WriteByte('1')
		case 2:
			sb.WriteByte("01xz"[r.Intn(4)])
		case 3:
			sb.WriteByte('z')
		default:
			sb.WriteByte('0')
		}
	}
	return fmt.Sprintf("%d'b%s", w, sb.String())
}

var verilogBinOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~", "&&", "||",
	"==", "!=", "===", "!==", "<", "<=", ">", ">="}

var verilogUnOps = []string{"!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^", "^~"}

// verilogOpsTB exercises every Verilog operator at width w, self-determined,
// signed, mixed and in wider contexts.
func verilogOpsTB(w int) string {
	r := rand.New(rand.NewSource(int64(w)))
	var b strings.Builder
	fmt.Fprintf(&b, "module tb;\n  reg [%d:0] a, b;\n  reg signed [%d:0] sa, sb;\n  reg [%d:0] wide;\n  reg signed [%d:0] swide;\n", w-1, w-1, w+8, w+8)
	b.WriteString("  reg [2:0] e;\n  reg [6:0] sh;\n  reg c;\n  initial begin\n")
	pairs := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 3}, {4, 4}}
	es := []string{"3'd3", "3'd0", "3'bx1x", "3'd1", "3'd2"}
	shs := []string{"7'd1", fmt.Sprintf("7'd%d", w-1), "7'bx", "7'd0", fmt.Sprintf("7'd%d", min(w+1, 127))}
	cs := []string{"1'b1", "1'b0", "1'bx", "1'bz", "1'b1"}
	for k, p := range pairs {
		fmt.Fprintf(&b, "    a = %s; b = %s; sa = a; sb = b; e = %s; sh = %s; c = %s;\n",
			verilogLit(r, w, p[0]), verilogLit(r, w, p[1]), es[k], shs[k], cs[k])
		fmt.Fprintf(&b, "    #1 $display(\"pair %d\");\n", k)
		for _, op := range verilogBinOps {
			fmt.Fprintf(&b, "    $display(\"a%[1]sb %%b sa%[1]ssb %%b sa%[1]sb %%b\", a %[1]s b, sa %[1]s sb, sa %[1]s b);\n", op)
			if op == "+" || op == "-" || op == "*" || op == "&" || op == "^~" {
				fmt.Fprintf(&b, "    wide = a %[1]s b; swide = sa %[1]s sb; $display(\"ctx%[1]s %%b %%b\", wide, swide);\n", op)
			}
		}
		for _, op := range verilogUnOps {
			fmt.Fprintf(&b, "    $display(\"%[1]sa %%b %[1]ssa %%b\", %[1]sa, %[1]ssa);\n", op)
		}
		b.WriteString("    wide = -a; swide = -sa; $display(\"ctx-neg %b %b\", wide, swide);\n")
		b.WriteString("    wide = ~a; swide = ~sb; $display(\"ctx-not %b %b\", wide, swide);\n")
		b.WriteString("    $display(\"shifts %b %b %b %b %b %b\", a << sh, a >> sh, a <<< sh, sa >>> sh, a << b, sa >> e);\n")
		b.WriteString("    wide = a << sh; swide = sa >>> sh; $display(\"ctx-shift %b %b\", wide, swide);\n")
		b.WriteString("    $display(\"pow %b %b %b\", a ** e, sa ** e, e ** 2);\n")
		b.WriteString("    wide = a ** e; $display(\"ctx-pow %b\", wide);\n")
		b.WriteString("    swide = sa; wide = sa; $display(\"ext %b %b\", swide, wide);\n")
		b.WriteString("    wide = $signed(a); swide = $unsigned(sa); $display(\"cast %b %b %b %b\", wide, swide, $signed(a), $unsigned(sb));\n")
		b.WriteString("    swide = $signed(a) >>> sh; wide = $signed(b) + a; $display(\"cast-ctx %b %b\", swide, wide);\n")
		b.WriteString("    $display(\"cmp-ctx %b %b %b %b\", (a + b) > wide, (a - b) == wide, sa < 0, $signed(a) < $signed(b));\n")
		b.WriteString("    $display(\"cmp-mixed %b %b %b\", sa < b, sa <= -1, a > -1);\n")
		b.WriteString("    wide = c ? a : b; swide = c ? sa : sb; $display(\"tern %b %b %b %b\", c ? a : b, wide, swide, c ? a : sb);\n")
		b.WriteString("    wide = {a, b}; $display(\"cat %b %b %b %b %b\", {a, b}, {2{a}}, {b[0], a}, {3{1'b1}}, wide);\n")
		b.WriteString("    wide = {2{b}} + {1'b1, a}; $display(\"cat-ctx %b %b\", wide, {c, {2{c}}});\n")
		b.WriteString("    $display(\"dec %d %0d %d %0d\", sa, sb, a, -sa);\n")
		b.WriteString("    $display(sa, a, sa + sb, sa * b);\n")
	}
	b.WriteString("    $finish;\n  end\nendmodule\n")
	return b.String()
}

// verilogSelectTB exercises bit, part and memory selects at width w.
func verilogSelectTB(w int) string {
	r := rand.New(rand.NewSource(int64(100 + w)))
	lit := func(kind int) string { return verilogLit(r, w, kind) }
	return fmt.Sprintf(`module tb;
  parameter P = 8'ha5;
  localparam Q = P + 1;
  reg [%[1]d:0] v, mw, y;
  reg [0:%[1]d] asc;
  reg [%[1]d:0] mem [0:3];
  reg [7:0] i, hi, lo;
  reg [1:0] xi;
  reg [%[2]d:0] wide;
  integer k;
  initial begin
    v = %[3]s; asc = %[4]s; xi = 2'bx; k = -1;
    mem[0] = %[5]s; mem[1] = %[6]s; mem[3] = %[7]s;
    mem[5] = %[3]s;
    mem[xi] = %[4]s;
    i = 2;
    #1 $display("mem %%b %%b %%b %%b", mem[0], mem[2], mem[i], mem[3]);
    i = 9; $display("mem-oob %%b %%b", mem[i], mem[k]);
    $display("mem-x %%b %%b", mem[xi], mem[2'b1z]);
    $display("const %%b %%b %%b", v[0], v[%[1]d:0], v[%[1]d]);
    hi = %[8]d; lo = 0; $display("dyn %%b %%b", v[hi:lo], v[lo:hi]);
    wide = v[hi:lo] + 1; y = {v[hi:lo], v[0]}; $display("dyn-ctx %%b %%b", wide, y);
    hi = %[9]d; $display("dyn-oob %%b", v[hi:lo]);
    hi = 8'bx; $display("dyn-x %%b %%b", v[hi:lo], v[lo:hi]);
    i = 0; $display("bit %%b %%b %%b %%b %%b", v[i], v[xi], v[200], v[k], v[i+1]);
    $display("asc %%b %%b %%b", asc[0], asc[0:%[1]d], asc[i]);
    $display("param %%b %%b %%b %%b", P[3:0], P[i], P[7:4] + Q, Q[1]);
    $display("computed %%b %%b", (v + 1)[0], (v ^ v)[i]);
    $display("random %%b %%b %%b", v[$random %% %[10]d], mem[$random %% 4], v[$random %% %[10]d]);
    v[0] = 1'b0; v[i + 1] = 1'b1; v[xi] = 1'b1; v[200] = 1'b1;
    $display("bitw %%b", v);
    hi = %[8]d; lo = 0; v[hi:lo] = 0; $display("partw %%b", v);
    hi = 8'bx; v[hi:lo] = 1; $display("partw-x %%b", v);
    {mw, v[0]} = {%[5]s, 1'b1}; $display("catw %%b %%b", mw, v);
    mem[i] <= %[6]s; v[lo] <= 1'b0; mem[xi] <= 0; mem[7] <= 0;
    #1 $display("nba %%b %%b %%b", mem[i], v, mem[3]);
    $finish;
  end
endmodule
`, w-1, w+8, lit(0), lit(2), lit(0), lit(2), lit(1), min(w-1, 5), w+3, w)
}

// verilogExprCorpus is the Verilog half of the expression-form corpus.
func verilogExprCorpus() []exprCase {
	var cs []exprCase
	for _, w := range exprWidths {
		cs = append(cs, exprCase{name: fmt.Sprintf("ops-%d", w), src: verilogOpsTB(w)})
	}
	for _, w := range []int{8, 65} {
		cs = append(cs, exprCase{name: fmt.Sprintf("select-%d", w), src: verilogSelectTB(w)})
	}
	return append(cs,
		exprCase{name: "fault-undeclared", raw: true, src: `
module tb;
  reg [7:0] y;
  initial begin
    $display("before");
    #1 y = nope + 1;
    $display("after");
  end
endmodule
`},
		exprCase{name: "fault-memory", src: `
module tb;
  reg [7:0] y;
  reg [7:0] mem [0:3];
  initial begin
    mem[0] = 1;
    $display("before");
    #1 y = mem + 1;
    $display("after");
  end
endmodule
`},
		exprCase{name: "fault-replicate-x", src: `
module tb;
  reg [7:0] y, a;
  reg [3:0] n;
  initial begin
    a = 3;
    $display("before");
    #1 y = {n{a}};
    $display("after");
  end
endmodule
`},
		exprCase{name: "fault-replicate-big", src: `
module tb;
  reg [7:0] y, a;
  reg [15:0] n = 2;
  wire [7:0] w = {n{a}};
  initial begin
    a = 3;
    #1 $display("w=%b", w);
    n = 5000;
    #1 $display("after");
  end
endmodule
`},
	)
}

// vhdlLit renders a width-w std_logic literal of the given kind (as
// verilogLit), as a character or a bit string.
func vhdlLit(r *rand.Rand, w, kind int) string {
	var sb strings.Builder
	for i := 0; i < w; i++ {
		switch kind {
		case 0:
			sb.WriteByte("01"[r.Intn(2)])
		case 1:
			sb.WriteByte('1')
		case 2:
			sb.WriteByte("01XZ"[r.Intn(4)])
		case 3:
			sb.WriteByte('Z')
		default:
			sb.WriteByte('0')
		}
	}
	if w == 1 {
		return "'" + sb.String() + "'"
	}
	return `"` + sb.String() + `"`
}

var vhdlBinOps = []string{"and", "or", "xor", "nand", "nor", "xnor", "+", "-", "/", "mod", "rem",
	"=", "/=", "<", "<=", ">", ">="}

// vhdlOpsTB exercises every VHDL operator, conversion and attribute at
// width w (w > 1: vectors; w == 1: std_logic operands for the logical
// operators and one-bit vectors for the rest).
func vhdlOpsTB(w int) string {
	r := rand.New(rand.NewSource(int64(200 + w)))
	var b strings.Builder
	vec := fmt.Sprintf("(%d downto 0)", w-1)
	fmt.Fprintf(&b, `library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal a, b : unsigned%[1]s;
  signal sa, sb : signed%[1]s;
  signal sl : std_logic_vector%[1]s;
  signal p : unsigned(%[2]d downto 0);
  signal ru : unsigned%[1]s;
  signal rs : signed%[1]s;
  signal n : integer := 5;
  signal m : integer := -3;
  signal c, clk : std_logic := '0';
  signal asc : unsigned(0 to %[3]d);
  signal bo : boolean;
  signal done : std_logic := '0';
begin
  clk <= not clk after 1 ns when done = '0' else '0';
  watcher: process(clk)
  begin
    if rising_edge(clk) then
      report "rise a=" & a & " event=" & clk'event;
    end if;
    if falling_edge(clk) then
      report "fall";
    end if;
    if clk'event and clk = '1' then
      report "event-rise len=" & a'length;
    end if;
  end process;
  stim: process
    variable v : unsigned%[1]s;
    variable vi : integer := 7;
  begin
`, vec, 2*w-1, w-1)
	pairs := [][2]int{{0, 0}, {1, 0}, {0, 3}, {4, 4}, {2, 0}}
	for k, pr := range pairs {
		fmt.Fprintf(&b, "    a <= %s; b <= %s; c <= '%c'; n <= %d; m <= %d;\n",
			vhdlLit(r, w, pr[0]), vhdlLit(r, w, pr[1]), "10XZ1"[k], []int{5, 0, -1, 0, 3}[k], []int{-3, 2, 0, 0, 1}[k])
		b.WriteString("    wait for 2 ns;\n    sa <= signed(a); sb <= signed(b); sl <= std_logic_vector(a); asc <= b;\n    wait for 0 ns;\n")
		fmt.Fprintf(&b, "    report \"pair %d\";\n", k)
		for _, op := range vhdlBinOps {
			fmt.Fprintf(&b, "    report \"a %[1]s b=\" & (a %[1]s b) & \" sa %[1]s sb=\" & (sa %[1]s sb);\n", op)
		}
		b.WriteString("    report \"int+vec=\" & (a + n) & \" \" & (n + a) & \" \" & (a - 1) & \" \" & (m - a) & \" \" & (a * 3) & \" \" & (n * m) & \" \" & (n / 2) & \" \" & (m mod 2) & \" \" & (n ** 2);\n")
		b.WriteString("    p <= a * b; wait for 0 ns; report \"mul=\" & p & \" \" & (sa * sb) & \" \" & (a * n);\n")
		b.WriteString("    report \"cmp-int=\" & (a = n) & \" \" & (n < a) & \" \" & (m >= n) & \" \" & (a /= 0);\n")
		b.WriteString("    report \"shift=\" & (a sll 1) & \" \" & (a srl n) & \" \" & shift_left(a, 1) & \" \" & shift_right(a, 1) & \" \" & shift_right(sa, 1) & \" \" & shift_left(sa, 2);\n")
		b.WriteString("    report \"unary=\" & (not a) & \" \" & (-n) & \" \" & (+a) & \" \" & (-sa) & \" \" & (not c);\n")
		b.WriteString("    report \"cat=\" & (a & b) & \" \" & (c & c) & \" \" & (a & '1');\n")
		fmt.Fprintf(&b, "    report \"conv=\" & to_integer(a) & \" \" & to_integer(sa) & \" \" & to_unsigned(n, %[1]d) & \" \" & to_signed(m, %[1]d) & \" \" & std_logic_vector(sa) & \" \" & unsigned(sl) & \" \" & signed(sl) & \" \" & to_01(a);\n", w)
		fmt.Fprintf(&b, "    report \"resize=\" & resize(a, %[1]d) & \" \" & resize(sa, %[1]d) & \" \" & resize(a, 1) & \" \" & abs(m) & \" \" & conv_integer(a);\n", w+3)
		b.WriteString("    report \"attr=\" & a'length & \" \" & c'event & \" \" & asc'length;\n")
		fmt.Fprintf(&b, "    ru <= (others => c); rs <= (others => '1'); v := (others => '0'); wait for 0 ns;\n    report \"agg=\" & ru & \" \" & rs & \" \" & v;\n")
		fmt.Fprintf(&b, "    report \"slice=\" & a(%[1]d downto 0) & \" \" & asc(0 to %[1]d) & \" \" & a(0) & \" \" & asc(%[1]d) & \" \" & a(n) & \" \" & a(%[2]d) & \" \" & asc(0);\n", min(w-1, 3), w+2)
		fmt.Fprintf(&b, "    v := a; v(0) := '1'; v(%[1]d downto 0) := (others => '0'); vi := vi + n; report \"var=\" & v & \" \" & vi & \" \" & v(0);\n", min(w-1, 2))
		fmt.Fprintf(&b, "    ru <= a; ru(0) <= '0'; ru(%[1]d downto 0) <= b(%[1]d downto 0); wait for 0 ns; report \"sigw=\" & ru;\n", min(w-1, 2))
		b.WriteString("    bo <= a > b; wait for 0 ns; report \"bool=\" & bo & \" \" & (bo and true) & \" \" & (not bo);\n")
	}
	b.WriteString("    done <= '1';\n    wait;\n  end process;\nend architecture;\n")
	return b.String()
}

// vhdlShadowTB pins a for variable shadowing a signal and a variable, in
// expressions, selects, targets and a wait's read set.
const vhdlShadowTB = `library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal n : integer := 40;
  signal a : unsigned(7 downto 0) := "10110100";
  signal q : unsigned(7 downto 0) := (others => '0');
  signal done : std_logic := '0';
begin
  bump: process
  begin
    wait for 5 ns;
    n <= 41;
    wait for 5 ns;
    n <= 42;
    wait;
  end process;
  p: process
    variable i : integer := 100;
    variable acc : integer := 0;
    variable w : unsigned(7 downto 0) := (others => '1');
  begin
    for n in 0 to 3 loop
      acc := acc + n;
      q(n) <= a(n);
      w(n) := '0';
      report "n=" & n & " a(n)=" & a(n);
    end loop;
    report "signal n=" & n & " acc=" & acc & " w=" & w;
    for i in 2 downto 0 loop
      acc := acc + i;
      for i in 5 to 6 loop
        acc := acc + 10 * i;
      end loop;
      report "i=" & i & " acc=" & acc;
    end loop;
    report "variable i=" & i;
    for n in 2 to 3 loop
      wait until n >= 2;
      report "woke n=" & n;
    end loop;
    report "q=" & q & " n=" & n;
    done <= '1';
    wait;
  end process;
end architecture;
`

// vhdlExprCorpus is the VHDL half of the expression-form corpus.
func vhdlExprCorpus() []exprCase {
	var cs []exprCase
	for _, w := range exprWidths {
		cs = append(cs, exprCase{name: fmt.Sprintf("ops-%d", w), src: vhdlOpsTB(w)})
	}
	cs = append(cs, exprCase{name: "shadow", src: vhdlShadowTB})
	fault := func(name, decls, stmt string, raw bool) exprCase {
		return exprCase{name: name, raw: raw, src: `library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
entity tb is end entity;
architecture sim of tb is
  signal a : unsigned(3 downto 0) := "0101";
  signal r : unsigned(3 downto 0);
` + decls + `begin
  process
  begin
    wait for 1 ns;
    report "before";
    ` + stmt + `
    report "after";
    wait;
  end process;
end architecture;
`}
	}
	return append(cs,
		fault("fault-undeclared", "", "r <= a + nope;", true),
		fault("fault-aggregate", "", `report "agg=" & (others => '1');`, false),
		fault("fault-aggregate-cmp", "", "if (others => '0') = a then r <= a; end if;", false),
		fault("fault-width", "  signal n : integer := 0;\n", "r <= to_unsigned(5, n);", false),
	)
}

// digestRawVerilog parses src without checking it and simulates it
// from top tb.
func digestRawVerilog(t *testing.T, name, src string) string {
	t.Helper()
	sf, diags := verilog.Parse(name+".v", src)
	if len(diags) > 0 {
		t.Fatalf("%s does not parse: %v", name, diags)
	}
	mods := map[string]*verilog.Module{}
	for _, m := range sf.Modules {
		mods[m.Name] = m
	}
	res, err := vsim.Simulate(mods, "tb", vsim.Options{CaptureFinal: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return verilogOutcome(res).digest()
}

// digestRawVHDL is digestRawVerilog through the VHDL front-end.
func digestRawVHDL(t *testing.T, name, src string) string {
	t.Helper()
	df, diags := vhdl.Parse(name+".vhd", src)
	if len(diags) > 0 {
		t.Fatalf("%s does not parse: %v", name, diags)
	}
	res, err := vhdlsim.Simulate([]*vhdl.DesignFile{df}, "tb", vhdlsim.Options{CaptureFinal: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return vhdlOutcome(res).digest()
}
