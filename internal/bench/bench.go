// Package bench provides the benchmark suite for the AIVRIL 2
// reproduction: 156 RTL design problems modelled on VerilogEval-Human.
// Each problem carries a natural-language spec, a module header, golden
// Verilog and VHDL implementations, an executable Go reference model,
// and the test vectors that model yields. The vectors are stored once,
// as the flat rows of the problem's sim.Stimulus; every testbench text
// (the reference testbenches and the Code Agent's self-generated
// subsets) is the judge shell's head, then a stimulus block rendered
// from those rows, then the shell's tail.
//
// Functional pass@1 is always judged against the suite's reference
// vectors (never the agent-generated bench), matching the paper's
// methodology.
package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Port describes one port of a problem's module interface.
type Port struct {
	Name  string
	Width int
	In    bool
	Clk   bool // the clock input (sequential problems only)
	Rst   bool // synchronous active-high reset
}

// State is the opaque state of a sequential reference model.
type State interface{}

// Problem is one benchmark design task.
type Problem struct {
	ID       string
	Index    int
	Category string
	Spec     string  // natural-language requirement given to the Code Agent
	Hardness float64 // 0 (trivial) .. 1 (hard); drives the LLM error model

	Ports []Port
	Seq   bool

	// Comb is the reference model for combinational problems.
	Comb func(in map[string]uint64) map[string]uint64
	// NewState/Step form the reference model for sequential problems.
	// Step applies one rising clock edge with the given inputs and
	// returns the outputs visible after the edge.
	NewState func() State
	Step     func(st State, in map[string]uint64) map[string]uint64

	GoldenVerilog string
	GoldenVHDL    string

	RefTBVerilog string // reference testbench over every vector
	RefTBVHDL    string

	// The suite judgement runs the judge shell — the reference
	// testbench without its per-vector stimulus block — with Stimulus
	// driven natively. Stimulus is the problem's only store of its
	// test vectors, generated deterministically at suite build time.
	ShellTBVerilog string
	ShellTBVHDL    string
	Stimulus       *sim.Stimulus
}

// TopName is the DUT module/entity name used across the whole suite
// (the VerilogEval convention).
const TopName = "top_module"

// TBName is the testbench module/entity name.
const TBName = "tb"

// Inputs returns the non-clock input ports.
func (p *Problem) Inputs() []Port {
	var out []Port
	for _, pt := range p.Ports {
		if pt.In && !pt.Clk {
			out = append(out, pt)
		}
	}
	return out
}

// Outputs returns the output ports.
func (p *Problem) Outputs() []Port {
	var out []Port
	for _, pt := range p.Ports {
		if !pt.In {
			out = append(out, pt)
		}
	}
	return out
}

// HasReset reports whether the problem has a synchronous reset input.
func (p *Problem) HasReset() bool {
	for _, pt := range p.Ports {
		if pt.Rst {
			return true
		}
	}
	return false
}

// ModuleHeaderVerilog renders the module header given to the Code Agent,
// in the VerilogEval style.
func (p *Problem) ModuleHeaderVerilog() string {
	s := "module " + TopName + "(\n"
	for i, pt := range p.Ports {
		dir := "output"
		if pt.In {
			dir = "input"
		}
		rng := ""
		if pt.Width > 1 {
			rng = fmt.Sprintf(" [%d:0]", pt.Width-1)
		}
		comma := ","
		if i == len(p.Ports)-1 {
			comma = ""
		}
		s += fmt.Sprintf("    %s%s %s%s\n", dir, rng, pt.Name, comma)
	}
	return s + ");"
}

// EntityHeaderVHDL renders the VHDL entity the Code Agent must target.
func (p *Problem) EntityHeaderVHDL() string {
	s := "entity " + TopName + " is\n  port (\n"
	for i, pt := range p.Ports {
		dir := "out"
		if pt.In {
			dir = "in "
		}
		ty := "std_logic"
		if pt.Width > 1 {
			ty = fmt.Sprintf("std_logic_vector(%d downto 0)", pt.Width-1)
		}
		sep := ";"
		if i == len(p.Ports)-1 {
			sep = ""
		}
		s += fmt.Sprintf("    %-10s : %s %s%s\n", pt.Name, dir, ty, sep)
	}
	return s + "  );\nend entity;"
}

// mask truncates v to w bits.
func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}

// genVectors builds the problem's stimulus from its reference model
// with a deterministic per-problem RNG. The map-based models run only
// here: each vector goes straight into the stimulus rows.
func (p *Problem) genVectors(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ins, outs := p.Inputs(), p.Outputs()
	totalBits := 0
	for _, pt := range ins {
		totalBits += pt.Width
	}
	// Combinational problems are tested exhaustively for small input
	// spaces and by random sampling otherwise. Sequential ones get a
	// reset burst, then a randomised input schedule with occasional
	// re-resets to exercise the reset path.
	exhaustive := !p.Seq && totalBits <= 8
	vectors := 40
	switch {
	case exhaustive:
		vectors = 1 << uint(totalBits)
	case !p.Seq:
		vectors = 48
	}
	var st State
	if p.Seq {
		st = p.NewState()
	}
	inRows := make([]uint64, 0, vectors*len(ins))
	outRows := make([]uint64, 0, vectors*len(outs))
	for i := 0; i < vectors; i++ {
		in := map[string]uint64{}
		shift := 0
		for _, pt := range ins {
			if exhaustive {
				in[pt.Name] = mask(uint64(i)>>uint(shift), pt.Width)
				shift += pt.Width
			} else {
				in[pt.Name] = mask(rng.Uint64(), pt.Width)
			}
		}
		var out map[string]uint64
		if p.Seq {
			if p.HasReset() {
				switch {
				case i < 2:
					in["reset"] = 1
				case i == 20 && rng.Intn(2) == 0:
					in["reset"] = 1
				default:
					in["reset"] = 0
				}
			}
			out = p.Step(st, in)
		} else {
			out = p.Comb(in)
		}
		for _, pt := range ins {
			inRows = append(inRows, in[pt.Name])
		}
		for _, pt := range outs {
			outRows = append(outRows, out[pt.Name])
		}
	}
	p.Stimulus = sim.NewStimulus(portNames(ins), portNames(outs), p.Seq, vectors, inRows, outRows)
}

// portNames returns the ports' names, in order.
func portNames(ports []Port) []string {
	names := make([]string, len(ports))
	for i, pt := range ports {
		names[i] = pt.Name
	}
	return names
}

// Suite is the full set of problems.
type Suite struct {
	Problems []*Problem
}

// ByID returns the problem with the given id, or nil.
func (s *Suite) ByID(id string) *Problem {
	for _, p := range s.Problems {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// Categories returns the sorted distinct category names.
func (s *Suite) Categories() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range s.Problems {
		if !seen[p.Category] {
			seen[p.Category] = true
			out = append(out, p.Category)
		}
	}
	sort.Strings(out)
	return out
}

// NewSuite builds the full 156-problem suite deterministically.
func NewSuite() *Suite {
	var ps []*Problem
	ps = append(ps, combProblems()...)
	ps = append(ps, arithProblems()...)
	ps = append(ps, seqProblems()...)
	ps = append(ps, fsmProblems()...)
	for i, p := range ps {
		p.Index = i
		p.genVectors(int64(1000 + i*7919))
		p.renderTestbenches()
	}
	return &Suite{Problems: ps}
}
