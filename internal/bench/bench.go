// Package bench provides the benchmark suite for the AIVRIL 2
// reproduction: 156 RTL design problems modelled on VerilogEval-Human.
// Each problem carries a natural-language spec, a module header, golden
// Verilog and VHDL implementations, an executable Go reference model,
// and reference testbenches generated from that model's test vectors.
//
// Functional pass@1 is always judged against the suite's reference
// testbench (never the agent-generated one), matching the paper's
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

// Vec is one test vector: input values and expected outputs. For
// sequential problems a Vec is one clock cycle.
type Vec struct {
	In  map[string]uint64
	Out map[string]uint64
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

	RefTBVerilog string // reference testbench (suite-side judge)
	RefTBVHDL    string

	// The suite judgement runs the judge shell — the reference
	// testbench without its per-vector stimulus block — with Stimulus
	// (the same vectors as data) driven natively.
	ShellTBVerilog string
	ShellTBVHDL    string
	Stimulus       *sim.Stimulus

	Vectors []Vec // generated deterministically at suite build time
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

// genVectors builds the problem's test vectors from its reference model
// with a deterministic per-problem RNG.
func (p *Problem) genVectors(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ins := p.Inputs()
	randomIn := func() map[string]uint64 {
		in := map[string]uint64{}
		for _, pt := range ins {
			in[pt.Name] = mask(rng.Uint64(), pt.Width)
		}
		return in
	}
	if !p.Seq {
		// Exhaustive for small input spaces, random sampling otherwise.
		totalBits := 0
		for _, pt := range ins {
			totalBits += pt.Width
		}
		if totalBits <= 8 {
			for v := uint64(0); v < (1 << uint(totalBits)); v++ {
				in := map[string]uint64{}
				shift := 0
				for _, pt := range ins {
					in[pt.Name] = mask(v>>uint(shift), pt.Width)
					shift += pt.Width
				}
				p.Vectors = append(p.Vectors, Vec{In: in, Out: p.Comb(in)})
			}
			return
		}
		for i := 0; i < 48; i++ {
			in := randomIn()
			p.Vectors = append(p.Vectors, Vec{In: in, Out: p.Comb(in)})
		}
		return
	}
	// Sequential: reset burst, then a randomised input schedule with
	// occasional re-resets to exercise the reset path.
	st := p.NewState()
	cycles := 40
	for c := 0; c < cycles; c++ {
		in := randomIn()
		if p.HasReset() {
			switch {
			case c < 2:
				in["reset"] = 1
			case c == 20 && rng.Intn(2) == 0:
				in["reset"] = 1
			default:
				in["reset"] = 0
			}
		}
		out := p.Step(st, in)
		p.Vectors = append(p.Vectors, Vec{In: in, Out: out})
	}
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
