package edatool

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench"
)

// corrupt applies n random byte-level edits to src.
func corrupt(rng *rand.Rand, src string, n int) string {
	b := []byte(src)
	for i := 0; i < n && len(b) > 0; i++ {
		switch rng.Intn(3) {
		case 0: // delete a byte
			p := rng.Intn(len(b))
			b = append(b[:p], b[p+1:]...)
		case 1: // flip a byte to random printable
			p := rng.Intn(len(b))
			b[p] = byte(32 + rng.Intn(95))
		case 2: // duplicate a span
			p := rng.Intn(len(b))
			q := p + rng.Intn(20)
			if q > len(b) {
				q = len(b)
			}
			b = append(b[:q], append([]byte(string(b[p:q])), b[q:]...)...)
		}
	}
	return string(b)
}

// TestQuickCompileNeverPanicsVerilog: the Verilog front-end returns
// diagnostics (never panics) on arbitrarily corrupted source.
func TestQuickCompileNeverPanicsVerilog(t *testing.T) {
	suite := bench.NewSuite()
	f := func(seed int64, pick uint16, edits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := suite.Problems[int(pick)%len(suite.Problems)]
		src := corrupt(rng, p.GoldenVerilog, 1+int(edits%16))
		res := New(Options{}).Compile(Verilog, Source{Name: "d.v", Text: src})
		return res.Log != "" // always produces a log
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompileNeverPanicsVHDL does the same for VHDL.
func TestQuickCompileNeverPanicsVHDL(t *testing.T) {
	suite := bench.NewSuite()
	f := func(seed int64, pick uint16, edits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := suite.Problems[int(pick)%len(suite.Problems)]
		src := corrupt(rng, p.GoldenVHDL, 1+int(edits%16))
		res := New(Options{}).Compile(VHDL, Source{Name: "d.vhd", Text: src})
		return res.Log != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimulateNeverPanics: even when corrupted source slips past
// the checker, simulation in either HDL converts interpreter trouble
// into faults and always produces a log.
func TestQuickSimulateNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation fuzzing")
	}
	suite := bench.NewSuite()
	for _, lang := range []Language{Verilog, VHDL} {
		f := func(seed int64, pick uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			p := suite.Problems[int(pick)%len(suite.Problems)]
			srcs := problemSources(p, lang)
			// Light corruption: likelier to compile and reach simulation.
			srcs[0].Text = corrupt(rng, srcs[0].Text, 1+rng.Intn(3))
			res := New(Options{}).Simulate(lang, bench.TBName, 50_000, srcs...)
			return res.Log != ""
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Errorf("%s: %v", lang, err)
		}
	}
}
