package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Every testbench comes from one renderer per HDL: a head
// (declarations, the DUT instantiation and, for sequential problems,
// the clock), a stimulus block over flat vector rows, and a tail. The
// head plus the tail is the judge shell (ShellTB*), rendered once per
// problem; the suite judgement runs it with the stimulus driven
// natively (Stimulus). VerilogTB and VHDLTB reuse the shell's head to
// write the textual testbenches: RefTB* over every vector, and
// self-generated testbenches over vector subsets. Sharing the head
// keeps the shell and the texts from drifting.

const (
	verilogTail = "endmodule\n"
	vhdlTail    = "end architecture;\n"
)

// VerilogTB emits a self-checking Verilog testbench over the vector
// rows in and out, laid out as in sim.Stimulus (len(Inputs()) and
// len(Outputs()) values per vector, vector-major): it prints numbered
// failure messages and the suite-wide pass marker. The Code Agent
// uses it with a vector subset to model self-generated testbenches of
// varying coverage.
func (p *Problem) VerilogTB(in, out []uint64) string {
	var sb strings.Builder
	head := strings.TrimSuffix(p.ShellTBVerilog, verilogTail)
	sb.Grow(len(p.ShellTBVerilog) + p.stimSize(out, 24))
	sb.WriteString(head)
	p.verilogStim(&sb, in, out)
	sb.WriteString(verilogTail)
	return sb.String()
}

// VHDLTB emits a self-checking VHDL testbench over the vector rows in
// and out, as VerilogTB does.
func (p *Problem) VHDLTB(in, out []uint64) string {
	var sb strings.Builder
	head := strings.TrimSuffix(p.ShellTBVHDL, vhdlTail)
	sb.Grow(len(p.ShellTBVHDL) + p.stimSize(out, 48))
	sb.WriteString(head)
	p.vhdlStim(&sb, in, out)
	sb.WriteString(vhdlTail)
	return sb.String()
}

// stimSize estimates the bytes of a stimulus block over the rows out
// whose vectors each take fixed bytes besides their port lines.
func (p *Problem) stimSize(out []uint64, fixed int) int {
	ins, outs := len(p.Inputs()), len(p.Outputs())
	return len(out) / outs * (24*ins + 112*outs + fixed)
}

// verilogHead writes the testbench module up to its initial block.
func (p *Problem) verilogHead(sb *strings.Builder) {
	sb.WriteString("`timescale 1ns/1ps\n")
	fmt.Fprintf(sb, "module %s;\n", TBName)
	// Declarations.
	for _, pt := range p.Ports {
		rng := ""
		if pt.Width > 1 {
			rng = fmt.Sprintf(" [%d:0]", pt.Width-1)
		}
		if pt.In {
			fmt.Fprintf(sb, "  reg%s %s;\n", rng, pt.Name)
		} else {
			fmt.Fprintf(sb, "  wire%s %s;\n", rng, pt.Name)
		}
	}
	sb.WriteString("  integer errors;\n")
	// Instantiation.
	fmt.Fprintf(sb, "  %s dut(", TopName)
	for i, pt := range p.Ports {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, ".%s(%s)", pt.Name, pt.Name)
	}
	sb.WriteString(");\n")
	if p.Seq {
		sb.WriteString("  always #5 clk = ~clk;\n")
	}
}

// verilogStim writes the initial block that applies and checks the
// vector rows. Lines are assembled with strconv appends into one
// reused buffer: the reference testbenches alone are 1.6 MB of this
// text, rendered at every suite build, and the Code Agent renders a
// subset per bench.
func (p *Problem) verilogStim(sb *strings.Builder, in, out []uint64) {
	ins, outs := p.Inputs(), p.Outputs()
	sb.WriteString("  initial begin\n    errors = 0;\n")
	if p.Seq {
		sb.WriteString("    clk = 0;\n")
		for _, pt := range ins {
			sb.WriteString("    " + pt.Name + " = 0;\n")
		}
	}
	var line []byte
	for i := 0; i < len(out)/len(outs); i++ {
		// Drive inputs, clock the design (or let it settle), then
		// check outputs.
		for j, pt := range ins {
			line = append(line[:0], "    "...)
			line = append(line, pt.Name...)
			line = append(line, " = "...)
			line = appendSized(line, pt.Width, in[i*len(ins)+j])
			line = append(line, ";\n"...)
			sb.Write(line)
		}
		if p.Seq {
			sb.WriteString("    @(posedge clk); #1;\n")
		} else {
			sb.WriteString("    #1;\n")
		}
		for j, pt := range outs {
			want := out[i*len(outs)+j]
			line = append(line[:0], "    if ("...)
			line = append(line, pt.Name...)
			line = append(line, " !== "...)
			line = appendSized(line, pt.Width, want)
			line = append(line, ") begin errors = errors + 1; $display(\"Test Case "...)
			line = strconv.AppendInt(line, int64(i+1), 10)
			line = append(line, " Failed: "...)
			line = append(line, pt.Name...)
			line = append(line, " expected "...)
			line = strconv.AppendUint(line, want, 10)
			line = append(line, " got %d\", "...)
			line = append(line, pt.Name...)
			line = append(line, "); end\n"...)
			sb.Write(line)
		}
	}
	sb.WriteString("    if (errors == 0) $display(\"" + sim.PassMarker + "\");\n")
	sb.WriteString("    else $display(\"%0d test case(s) failed.\", errors);\n")
	sb.WriteString("    $finish;\n  end\n")
}

// appendSized appends v as a sized Verilog decimal literal, w'dv.
func appendSized(b []byte, w int, v uint64) []byte {
	b = strconv.AppendInt(b, int64(w), 10)
	b = append(b, "'d"...)
	return strconv.AppendUint(b, v, 10)
}

// vhdlBin renders v as a VHDL literal for a port of width w: '0'/'1'
// for scalars, a binary bit-string otherwise.
func vhdlBin(v uint64, w int) string { return string(appendVHDLBin(nil, v, w)) }

// appendVHDLBin appends vhdlBin(v, w).
func appendVHDLBin(b []byte, v uint64, w int) []byte {
	if w == 1 {
		if v&1 == 1 {
			return append(b, "'1'"...)
		}
		return append(b, "'0'"...)
	}
	b = append(b, '"')
	for i := 0; i < w; i++ {
		if v&(1<<uint(w-1-i)) != 0 {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return append(b, '"')
}

// vhdlHead writes the testbench architecture up to its stim process.
func (p *Problem) vhdlHead(sb *strings.Builder) {
	sb.WriteString("library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n")
	fmt.Fprintf(sb, "entity %s is end entity;\n\n", TBName)
	fmt.Fprintf(sb, "architecture sim of %s is\n", TBName)
	for _, pt := range p.Ports {
		ty := "std_logic"
		if pt.Width > 1 {
			ty = fmt.Sprintf("std_logic_vector(%d downto 0)", pt.Width-1)
		}
		init := " := '0'"
		if pt.Width > 1 {
			init = " := (others => '0')"
		}
		if !pt.In {
			init = ""
		}
		fmt.Fprintf(sb, "  signal %s : %s%s;\n", pt.Name, ty, init)
	}
	sb.WriteString("  signal done : std_logic := '0';\nbegin\n")
	if p.Seq {
		sb.WriteString("  clk <= not clk after 5 ns when done = '0' else '0';\n")
	}
	fmt.Fprintf(sb, "  uut: entity work.%s port map (", TopName)
	for i, pt := range p.Ports {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s => %s", pt.Name, pt.Name)
	}
	sb.WriteString(");\n")
}

// vhdlStim writes the stim process that applies and checks the vector
// rows, assembling lines as verilogStim does.
func (p *Problem) vhdlStim(sb *strings.Builder, in, out []uint64) {
	ins, outs := p.Inputs(), p.Outputs()
	sb.WriteString("  stim: process\n    variable errors : integer := 0;\n  begin\n")
	var line []byte
	for i := 0; i < len(out)/len(outs); i++ {
		for j, pt := range ins {
			line = append(line[:0], "    "...)
			line = append(line, pt.Name...)
			line = append(line, " <= "...)
			line = appendVHDLBin(line, in[i*len(ins)+j], pt.Width)
			line = append(line, ";\n"...)
			sb.Write(line)
		}
		if p.Seq {
			sb.WriteString("    wait until rising_edge(clk);\n")
		}
		sb.WriteString("    wait for 1 ns;\n")
		for j, pt := range outs {
			want := out[i*len(outs)+j]
			line = append(line[:0], "    if "...)
			line = append(line, pt.Name...)
			line = append(line, " /= "...)
			line = appendVHDLBin(line, want, pt.Width)
			line = append(line, " then errors := errors + 1; report \"Test Case "...)
			line = strconv.AppendInt(line, int64(i+1), 10)
			line = append(line, " Failed: "...)
			line = append(line, pt.Name...)
			line = append(line, " expected "...)
			line = strconv.AppendUint(line, want, 10)
			line = append(line, "\" severity error; end if;\n"...)
			sb.Write(line)
		}
	}
	sb.WriteString("    if errors = 0 then\n      report \"" + sim.PassMarker + "\";\n")
	sb.WriteString("    end if;\n    done <= '1';\n    wait;\n  end process;\n")
}

// renderTestbenches renders the judge shells and, over the whole
// stimulus, the reference testbenches.
func (p *Problem) renderTestbenches() {
	var sb strings.Builder
	p.verilogHead(&sb)
	sb.WriteString(verilogTail)
	p.ShellTBVerilog = sb.String()

	sb.Reset()
	p.vhdlHead(&sb)
	sb.WriteString(vhdlTail)
	p.ShellTBVHDL = sb.String()

	p.RefTBVerilog = p.VerilogTB(p.Stimulus.In, p.Stimulus.Out)
	p.RefTBVHDL = p.VHDLTB(p.Stimulus.In, p.Stimulus.Out)
}
