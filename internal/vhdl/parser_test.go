package vhdl

import (
	"strings"
	"testing"

	"repro/internal/lex"
)

const sampleVHDLCounter = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  generic (WIDTH : integer := 4);
  port (
    clk   : in  std_logic;
    reset : in  std_logic;
    count : out std_logic_vector(WIDTH-1 downto 0)
  );
end entity;

architecture rtl of counter is
  signal cnt : unsigned(WIDTH-1 downto 0);
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        cnt <= (others => '0');
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  count <= std_logic_vector(cnt);
end architecture;
`

func mustParseVHDL(t *testing.T, src string) *DesignFile {
	t.Helper()
	df, diags := Parse("test.vhd", src)
	if diags.HasErrors() {
		t.Fatalf("unexpected parse errors: %v", diags)
	}
	return df
}

func TestParseCounterEntity(t *testing.T) {
	df := mustParseVHDL(t, sampleVHDLCounter)
	if len(df.Entities) != 1 || len(df.Archs) != 1 {
		t.Fatalf("units: %d entities, %d archs", len(df.Entities), len(df.Archs))
	}
	e := df.Entities[0]
	if e.Name != "counter" {
		t.Errorf("entity name = %q", e.Name)
	}
	if len(e.Generics) != 1 || e.Generics[0].Name != "width" {
		t.Errorf("generics = %+v", e.Generics)
	}
	if len(e.Ports) != 3 {
		t.Fatalf("ports = %d", len(e.Ports))
	}
	if e.Ports[2].Name != "count" || e.Ports[2].Dir != DirOut {
		t.Errorf("count port: %+v", e.Ports[2])
	}
	if !e.Ports[2].Type.HasRange || !e.Ports[2].Type.Descending {
		t.Errorf("count type: %+v", e.Ports[2].Type)
	}
}

func TestParseCounterArch(t *testing.T) {
	df := mustParseVHDL(t, sampleVHDLCounter)
	a := df.Archs[0]
	if a.Name != "rtl" || a.EntityName != "counter" {
		t.Errorf("arch %q of %q", a.Name, a.EntityName)
	}
	if len(a.Decls) != 1 {
		t.Fatalf("decls = %d", len(a.Decls))
	}
	sd := a.Decls[0].(*SignalDecl)
	if sd.Names[0] != "cnt" || sd.Type.Name != "unsigned" {
		t.Errorf("signal decl = %+v", sd)
	}
	if len(a.Stmts) != 2 {
		t.Fatalf("conc stmts = %d", len(a.Stmts))
	}
	proc, ok := a.Stmts[0].(*ProcessStmt)
	if !ok || len(proc.Sens) != 1 {
		t.Fatalf("process = %+v", a.Stmts[0])
	}
	ifs, ok := proc.Body[0].(*IfStmt)
	if !ok {
		t.Fatalf("body[0] = %T", proc.Body[0])
	}
	call, ok := ifs.Branches[0].Cond.(*CallOrIndex)
	if !ok || call.Name != "rising_edge" {
		t.Errorf("cond = %+v", ifs.Branches[0].Cond)
	}
	if _, ok := a.Stmts[1].(*ConcAssign); !ok {
		t.Errorf("stmt[1] = %T", a.Stmts[1])
	}
}

func TestParseAggregate(t *testing.T) {
	df := mustParseVHDL(t, sampleVHDLCounter)
	proc := df.Archs[0].Stmts[0].(*ProcessStmt)
	outer := proc.Body[0].(*IfStmt)
	inner := outer.Branches[0].Body[0].(*IfStmt)
	sa := inner.Branches[0].Body[0].(*SigAssign)
	if _, ok := sa.Value.(*AggregateExpr); !ok {
		t.Errorf("value = %T", sa.Value)
	}
}

func TestParseTestbench(t *testing.T) {
	src := `
entity tb is end entity;
architecture sim of tb is
  signal clk : std_logic := '0';
  signal reset : std_logic := '1';
  signal count : std_logic_vector(3 downto 0);
begin
  clk <= not clk after 5 ns;
  uut: entity work.counter generic map (WIDTH => 4) port map (clk => clk, reset => reset, count => count);
  stim: process
  begin
    wait for 12 ns;
    reset <= '0';
    wait until rising_edge(clk);
    wait for 1 ns;
    assert count = "0000" report "Test Case 1 Failed" severity error;
    report "All tests passed successfully!";
    wait;
  end process;
end architecture;
`
	df := mustParseVHDL(t, src)
	if len(df.Entities) != 1 || len(df.Archs) != 1 {
		t.Fatalf("units wrong")
	}
	a := df.Archs[0]
	if len(a.Stmts) != 3 {
		t.Fatalf("conc stmts = %d", len(a.Stmts))
	}
	ca := a.Stmts[0].(*ConcAssign)
	if ca.Waves[0].AfterNs == nil {
		t.Error("after clause missing")
	}
	inst := a.Stmts[1].(*InstanceStmt)
	if inst.EntityName != "counter" || inst.Label != "uut" || len(inst.Ports) != 3 || len(inst.Generics) != 1 {
		t.Errorf("instance = %+v", inst)
	}
	proc := a.Stmts[2].(*ProcessStmt)
	if len(proc.Sens) != 0 {
		t.Error("stim process should have no sensitivity list")
	}
	var sawWaitFor, sawWaitUntil, sawAssert, sawReport, sawForever bool
	for _, s := range proc.Body {
		switch x := s.(type) {
		case *WaitStmt:
			if x.ForNs != nil && x.Until == nil {
				sawWaitFor = true
			}
			if x.Until != nil {
				sawWaitUntil = true
			}
			if x.Forever {
				sawForever = true
			}
		case *AssertStmt:
			sawAssert = true
			if x.Severity != "error" {
				t.Errorf("severity = %q", x.Severity)
			}
		case *ReportStmt:
			sawReport = true
		}
	}
	if !sawWaitFor || !sawWaitUntil || !sawAssert || !sawReport || !sawForever {
		t.Errorf("missing stmts: for=%v until=%v assert=%v report=%v forever=%v",
			sawWaitFor, sawWaitUntil, sawAssert, sawReport, sawForever)
	}
}

func TestParseCaseWhen(t *testing.T) {
	src := `
entity m is
  port (sel : in std_logic_vector(1 downto 0); y : out std_logic);
end entity;
architecture rtl of m is
begin
  process(sel)
  begin
    case sel is
      when "00" => y <= '0';
      when "01" | "10" => y <= '1';
      when others => y <= 'x';
    end case;
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	proc := df.Archs[0].Stmts[0].(*ProcessStmt)
	cs := proc.Body[0].(*CaseStmt)
	if len(cs.Arms) != 3 {
		t.Fatalf("arms = %d", len(cs.Arms))
	}
	if len(cs.Arms[1].Choices) != 2 {
		t.Errorf("arm 1 choices = %d", len(cs.Arms[1].Choices))
	}
	if cs.Arms[2].Choices != nil {
		t.Error("others arm must have nil choices")
	}
}

func TestParseConditionalAssign(t *testing.T) {
	src := `
entity m is port (a, b, s : in std_logic; y : out std_logic); end entity;
architecture rtl of m is
begin
  y <= a when s = '1' else b;
end architecture;`
	df := mustParseVHDL(t, src)
	ca := df.Archs[0].Stmts[0].(*ConcAssign)
	if len(ca.Waves) != 2 {
		t.Fatalf("waves = %d", len(ca.Waves))
	}
	if ca.Waves[0].Cond == nil || ca.Waves[1].Cond != nil {
		t.Error("conditional structure wrong")
	}
}

func TestParseForLoopVHDL(t *testing.T) {
	src := `
entity m is port (a : in std_logic_vector(7 downto 0); y : out std_logic_vector(7 downto 0)); end entity;
architecture rtl of m is
begin
  process(a)
  begin
    for i in 0 to 7 loop
      y(i) <= a(7 - i);
    end loop;
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	proc := df.Archs[0].Stmts[0].(*ProcessStmt)
	fs := proc.Body[0].(*ForStmt)
	if fs.Var != "i" || fs.Descending {
		t.Errorf("for = %+v", fs)
	}
}

func TestParseVariables(t *testing.T) {
	src := `
entity m is port (a : in std_logic_vector(3 downto 0); y : out integer); end entity;
architecture rtl of m is
begin
  process(a)
    variable ones : integer := 0;
  begin
    ones := 0;
    for i in 0 to 3 loop
      if a(i) = '1' then
        ones := ones + 1;
      end if;
    end loop;
    y <= ones;
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	proc := df.Archs[0].Stmts[0].(*ProcessStmt)
	if len(proc.Decls) != 1 {
		t.Fatalf("decls = %d", len(proc.Decls))
	}
	vd := proc.Decls[0].(*VarDecl)
	if vd.Names[0] != "ones" || vd.Type.Name != "integer" {
		t.Errorf("vardecl = %+v", vd)
	}
	if _, ok := proc.Body[0].(*VarAssign); !ok {
		t.Errorf("body[0] = %T", proc.Body[0])
	}
}

func TestParseErrorRecoveryVHDL(t *testing.T) {
	src := `
entity bad is
  port (a : in std_logic
end entity;
architecture rtl of bad is
begin
  y <= a;
end architecture;`
	_, diags := Parse("bad.vhd", src)
	if !diags.HasErrors() {
		t.Fatal("expected errors")
	}
}

func TestParseMissingSemicolonVHDL(t *testing.T) {
	src := `
entity m is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of m is
begin
  process(a)
  begin
    y <= a
  end process;
end architecture;`
	_, diags := Parse("m.vhd", src)
	if !diags.HasErrors() {
		t.Fatal("missing semicolon must error")
	}
}

func TestParseAttribute(t *testing.T) {
	src := `
entity m is port (clk, d : in std_logic; q : out std_logic); end entity;
architecture rtl of m is
begin
  process(clk)
  begin
    if clk'event and clk = '1' then
      q <= d;
    end if;
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	proc := df.Archs[0].Stmts[0].(*ProcessStmt)
	ifs := proc.Body[0].(*IfStmt)
	bin := ifs.Branches[0].Cond.(*BinaryExpr)
	attr, ok := bin.L.(*AttrExpr)
	if !ok || attr.Base != "clk" || attr.Attr != "event" {
		t.Errorf("attr = %+v", bin.L)
	}
}

func TestCheckVHDLClean(t *testing.T) {
	df := mustParseVHDL(t, sampleVHDLCounter)
	diags := Check("t.vhd", df, nil)
	if diags.HasErrors() {
		t.Errorf("clean design flagged: %v", diags)
	}
}

func TestCheckVHDLUndeclared(t *testing.T) {
	src := `
entity m is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of m is
begin
  y <= a and ghost;
end architecture;`
	df := mustParseVHDL(t, src)
	diags := Check("t.vhd", df, nil)
	if !diags.HasErrors() {
		t.Fatal("undeclared not flagged")
	}
	var found bool
	for _, d := range diags {
		if strings.Contains(d.Message, "ghost") {
			found = true
		}
	}
	if !found {
		t.Errorf("diags: %v", diags)
	}
}

func TestCheckVHDLAssignToInput(t *testing.T) {
	src := `
entity m is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of m is
begin
  a <= '0';
  y <= a;
end architecture;`
	df := mustParseVHDL(t, src)
	diags := Check("t.vhd", df, nil)
	if !diags.HasErrors() {
		t.Fatal("assign to input not flagged")
	}
}

func TestCheckVHDLVarSigConfusion(t *testing.T) {
	src := `
entity m is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of m is
  signal s : std_logic;
begin
  process(a)
  begin
    s := a;
    y <= s;
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	diags := Check("t.vhd", df, nil)
	if !diags.HasErrors() {
		t.Fatal(":= on a signal not flagged")
	}
	var found bool
	for _, d := range diags {
		if strings.Contains(d.Message, "<=") {
			found = true
		}
	}
	if !found {
		t.Errorf("diags: %v", diags)
	}
}

func TestCheckVHDLProcessWithoutWait(t *testing.T) {
	src := `
entity m is port (y : out std_logic); end entity;
architecture rtl of m is
begin
  process
  begin
    y <= '1';
  end process;
end architecture;`
	df := mustParseVHDL(t, src)
	diags := Check("t.vhd", df, nil)
	if !diags.HasErrors() {
		t.Fatal("process without wait/sensitivity not flagged")
	}
}

func TestCheckVHDLInstancePorts(t *testing.T) {
	src := `
entity leaf is port (a : in std_logic; y : out std_logic); end entity;
architecture rtl of leaf is begin y <= a; end architecture;
entity top is port (x : in std_logic; z : out std_logic); end entity;
architecture rtl of top is
begin
  u0: entity work.leaf port map (a => x, bogus => z);
end architecture;`
	df := mustParseVHDL(t, src)
	diags := Check("t.vhd", df, nil)
	if !diags.HasErrors() {
		t.Fatal("bogus port not flagged")
	}
	var found bool
	for _, d := range diags {
		if strings.Contains(d.Message, "bogus") {
			found = true
		}
	}
	if !found {
		t.Errorf("diags: %v", diags)
	}
}

func TestLexVHDLCaseInsensitive(t *testing.T) {
	toks := tokens("ENTITY Foo IS End")
	if toks[0].Kind != lex.Keyword || toks[0].Text != "entity" {
		t.Errorf("tok0 = %+v", toks[0])
	}
	if toks[1].Kind != lex.Ident || toks[1].Text != "foo" {
		t.Errorf("tok1 = %+v", toks[1])
	}
}

func TestLexVHDLLiterals(t *testing.T) {
	toks := tokens(`'1' "1010" x"AF" "hello" 42 5 ns`)
	wantKinds := []lex.Kind{TokChar, TokBitStr, TokBitStr, TokString, TokInt, TokInt, lex.Keyword}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %v %q, want kind %v", i, toks[i].Kind, toks[i].Text, k)
		}
	}
}

func TestLexVHDLComment(t *testing.T) {
	toks := tokens("a -- comment\nb")
	if toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("toks = %v", toks)
	}
}

func TestLexVHDLAttributeTickVsCharLiteral(t *testing.T) {
	// clk'event must lex as ident, tick-op, keyword — not a char literal.
	toks := tokens("clk'event q <= '1';")
	if toks[0].Kind != lex.Ident || toks[1].Kind != TokOp || toks[1].Text != "'" {
		t.Fatalf("attribute tick mislexed: %v %v", toks[0], toks[1])
	}
	if toks[2].Kind != lex.Keyword || toks[2].Text != "event" {
		t.Fatalf("event keyword: %v", toks[2])
	}
	// While '1' in expression position is a char literal.
	var char *lex.Token
	for i := range toks {
		if toks[i].Kind == TokChar {
			char = &toks[i]
		}
	}
	if char == nil || char.Text != "1" {
		t.Fatalf("char literal missing: %v", toks)
	}
}

func TestLexVHDLUnterminatedString(t *testing.T) {
	toks := tokens("report \"oops\nwait;")
	if toks[1].Kind != TokError {
		t.Errorf("unterminated string should error: %v", toks[1])
	}
}

func TestParseVHDLGenericPositionalMap(t *testing.T) {
	src := `
entity leaf is
  generic (W : integer := 2);
  port (y : out std_logic_vector(W-1 downto 0));
end entity;
architecture rtl of leaf is begin y <= (others => '1'); end architecture;
entity top is port (z : out std_logic_vector(4 downto 0)); end entity;
architecture rtl of top is
begin
  u0: entity work.leaf generic map (5) port map (z);
end architecture;`
	df := mustParseVHDL(t, src)
	var inst *InstanceStmt
	for _, a := range df.Archs {
		for _, cs := range a.Stmts {
			if x, ok := cs.(*InstanceStmt); ok {
				inst = x
			}
		}
	}
	if inst == nil || len(inst.Generics) != 1 || inst.Generics[0].Formal != "" {
		t.Fatalf("positional generic map: %+v", inst)
	}
	if len(inst.Ports) != 1 || inst.Ports[0].Formal != "" {
		t.Fatalf("positional port map: %+v", inst)
	}
}

func TestParseSelectedAssignAST(t *testing.T) {
	src := `
entity m is port (s : in std_logic_vector(1 downto 0); y : out std_logic); end entity;
architecture rtl of m is
begin
  with s select y <= '1' when "00", '0' when others;
end architecture;`
	df := mustParseVHDL(t, src)
	ca, ok := df.Archs[0].Stmts[0].(*ConcAssign)
	if !ok {
		t.Fatalf("stmt = %T", df.Archs[0].Stmts[0])
	}
	if len(ca.Waves) != 2 {
		t.Fatalf("waves = %d", len(ca.Waves))
	}
	if ca.Waves[0].Cond == nil || ca.Waves[1].Cond != nil {
		t.Error("selected-assign desugaring wrong")
	}
}
