package bench

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestQuickModelsMatchGoldenOnRandomVectors checks, for a sample of
// combinational problems, that regenerating vectors with a different
// seed still produces vectors the golden Verilog satisfies — i.e. the
// Go reference models are total functions consistent with the RTL
// (not just on the canned vectors).
func TestQuickCombModelTotality(t *testing.T) {
	suite := NewSuite()
	var comb []*Problem
	for _, p := range suite.Problems {
		if !p.Seq {
			comb = append(comb, p)
		}
	}
	f := func(pick uint16, raw uint64) bool {
		p := comb[int(pick)%len(comb)]
		in := map[string]uint64{}
		shift := 0
		for _, pt := range p.Inputs() {
			in[pt.Name] = mask(raw>>uint(shift), pt.Width)
			shift += pt.Width
		}
		out := p.Comb(in)
		// Outputs must cover every declared output port and be in range.
		for _, pt := range p.Outputs() {
			v, ok := out[pt.Name]
			if !ok {
				return false
			}
			if v != mask(v, pt.Width) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSeqModelBounded: sequential models never produce
// out-of-range outputs under arbitrary input schedules.
func TestQuickSeqModelBounded(t *testing.T) {
	suite := NewSuite()
	var seq []*Problem
	for _, p := range suite.Problems {
		if p.Seq {
			seq = append(seq, p)
		}
	}
	f := func(pick uint16, a, b, c uint64) bool {
		p := seq[int(pick)%len(seq)]
		st := p.NewState()
		for cyc, raw := range []uint64{a, b, c, a ^ b, b ^ c} {
			in := map[string]uint64{}
			shift := 0
			for _, pt := range p.Inputs() {
				in[pt.Name] = mask(raw>>uint(shift), pt.Width)
				shift += pt.Width
			}
			if p.HasReset() && cyc == 0 {
				in["reset"] = 1
			}
			out := p.Step(st, in)
			for _, pt := range p.Outputs() {
				v, ok := out[pt.Name]
				if !ok || v != mask(v, pt.Width) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTBGeneratorSubsets(t *testing.T) {
	suite := NewSuite()
	p := suite.ByID("counter_up_w4")
	st := p.Stimulus
	in, out := st.In[:5*len(st.Inputs)], st.Out[:5*len(st.Outputs)]
	tb := p.VerilogTB(in, out)
	if strings.Count(tb, "@(posedge clk)") != 5 {
		t.Errorf("subset TB has %d cycles, want 5", strings.Count(tb, "@(posedge clk)"))
	}
	vtb := p.VHDLTB(in, out)
	if strings.Count(vtb, "wait until rising_edge(clk)") != 5 {
		t.Errorf("VHDL subset TB cycles wrong")
	}
	// Both still carry the pass marker machinery.
	if !strings.Contains(tb, "All tests passed successfully!") ||
		!strings.Contains(vtb, "All tests passed successfully!") {
		t.Error("pass marker missing from subset TB")
	}
}

func TestKMPAutomaton(t *testing.T) {
	aut := kmpAutomaton("101")
	// Simulate "10101": overlapping matches at positions 3 and 5.
	state := 0
	hits := 0
	for _, ch := range "10101" {
		state = aut[state][int(ch-'0')]
		if state == 3 {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("overlapping matches = %d, want 2", hits)
	}
}

func TestQuickKMPMatchesNaive(t *testing.T) {
	patterns := []string{"101", "110", "0110", "11011"}
	f := func(pick uint8, stream uint32) bool {
		pat := patterns[int(pick)%len(patterns)]
		aut := kmpAutomaton(pat)
		bits := make([]byte, 24)
		for i := range bits {
			bits[i] = byte('0' + (stream>>uint(i))&1)
		}
		s := string(bits)
		state := 0
		for i := 0; i < len(s); i++ {
			state = aut[state][int(s[i]-'0')]
			want := strings.HasSuffix(s[:i+1], pat)
			got := state == len(pat)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVhdlBinLiteral(t *testing.T) {
	if vhdlBin(1, 1) != "'1'" || vhdlBin(0, 1) != "'0'" {
		t.Error("scalar literals")
	}
	if vhdlBin(0b1010, 4) != "\"1010\"" {
		t.Errorf("vector literal = %s", vhdlBin(0b1010, 4))
	}
}

func TestHardnessDistribution(t *testing.T) {
	suite := NewSuite()
	var sum float64
	for _, p := range suite.Problems {
		sum += p.Hardness
	}
	avg := sum / float64(len(suite.Problems))
	// The llm calibration assumes mean hardness near 0.3.
	if avg < 0.15 || avg > 0.45 {
		t.Errorf("mean hardness = %.3f drifted out of the calibrated band", avg)
	}
}
