package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
)

// The digest pins every mutation site the simulated model can sample:
// every suite problem, both HDLs, the golden RTL and the full reference
// testbench, both defect kinds. Each site contributes its position in
// the enumeration, its description, marker, sampling weight and the
// text its edit produces, so a change to the site order, to a row of
// the defect table or to how an edit is applied moves it. Sampling
// draws by position and weight, so an unchanged digest means every
// sampled defect is unchanged too.
const (
	siteDigestCount = 9147
	siteDigestSHA   = "80dd2888523a0a2e029dbf463c624385ab13499d472ae9a8ea6ee0f5addc3484"
)

func TestMutationSiteDigest(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, p := range bench.NewSuite().Problems {
		st := p.Stimulus
		for _, verilog := range []bool{true, false} {
			golden, tb, hdl := p.GoldenVerilog, p.VerilogTB(st.In, st.Out), "verilog"
			if !verilog {
				golden, tb, hdl = p.GoldenVHDL, p.VHDLTB(st.In, st.Out), "vhdl"
			}
			for _, text := range []struct{ name, src string }{{"golden", golden}, {"tb", tb}} {
				for _, kind := range []MutKind{MutSyntax, MutFunctional} {
					for i, s := range pinnedSites(text.src, verilog, kind) {
						w := s.weight
						if w <= 0 {
							w = 1
						}
						fmt.Fprintf(h, "%s/%s/%s/%d/%d %q %q %d %d\n", p.ID, hdl, text.name, kind, i, s.desc, s.marker, w, len(s.text))
						h.Write([]byte(s.text))
						n++
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if n != siteDigestCount || got != siteDigestSHA {
		t.Errorf("mutation sites: %d sites, sha256 %s; want %d, %s", n, got, siteDigestCount, siteDigestSHA)
	}
}
