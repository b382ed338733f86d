package baseline

import (
	"testing"

	"repro/internal/core"
)

func TestComparatorsConfigure(t *testing.T) {
	cs := Comparators()
	if len(cs) != 2 {
		t.Fatalf("comparators = %d", len(cs))
	}
	for _, c := range cs {
		cfg := core.Config{FreezeTestbench: true}
		c.Configure(&cfg)
		switch c.Name {
		case "syntax-only-loop":
			if !cfg.SkipFunctional {
				t.Error("syntax-only must skip functional")
			}
		case "co-generation":
			if cfg.FreezeTestbench {
				t.Error("co-generation must unfreeze the testbench")
			}
		default:
			t.Errorf("unexpected comparator %q", c.Name)
		}
	}
}

func TestLiteratureMatchesPaperTable2(t *testing.T) {
	lit := Literature()
	byName := map[string]float64{}
	for _, l := range lit {
		byName[l.Technology] = l.PassAt1F
	}
	checks := map[string]float64{
		"ChipNemo-13B":      22.4,
		"RTLFixer":          36.8,
		"VeriAssist":        50.5,
		"Claude 3.5 Sonnet": 60.23,
		"AIVRIL":            67.3,
	}
	for name, want := range checks {
		if got, ok := byName[name]; !ok || got != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, got, ok, want)
		}
	}
}
