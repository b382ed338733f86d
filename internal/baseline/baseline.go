// Package baseline defines the comparator configurations evaluated
// against AIVRIL 2 (Table 2) and the literature-reported results of
// systems that cannot be rerun (fine-tuned closed models etc.).
package baseline

import "repro/internal/core"

// Comparator names a pipeline variant.
type Comparator struct {
	Name      string
	Configure func(*core.Config)
	Note      string
}

// Comparators returns the rerunnable baseline variants:
//
//   - zero-shot: the pipeline's first generation, no loops (measured from
//     the baseline artefact, configuration unchanged);
//   - syntax-only: Review-Agent loop without functional verification,
//     the RTLFixer-style flow;
//   - co-generation: RTL and testbench regenerated together each
//     functional iteration, the AIVRIL 1 flow without the
//     testbench-first methodology.
func Comparators() []Comparator {
	return []Comparator{
		{
			Name:      "syntax-only-loop",
			Configure: func(c *core.Config) { c.SkipFunctional = true },
			Note:      "RTLFixer-style: compiler feedback only",
		},
		{
			Name:      "co-generation",
			Configure: func(c *core.Config) { c.FreezeTestbench = false },
			Note:      "AIVRIL 1-style: testbench regenerated with the RTL",
		},
	}
}

// LiteratureEntry is a pass@1F number taken from the paper's Table 2
// for systems we cannot rerun offline.
type LiteratureEntry struct {
	Technology string
	License    string
	PassAt1F   float64 // percent, Verilog only
}

// Literature reproduces the cited rows of Table 2 verbatim.
func Literature() []LiteratureEntry {
	return []LiteratureEntry{
		{"Llama3-70B", "Open Source", 37.82},
		{"CodeGen-16B", "Open Source", 41.9},
		{"CodeV-CodeQwen", "Open Source", 53.2},
		{"ChipNemo-13B", "Closed Source", 22.4},
		{"ChipNemo-70B", "Closed Source", 27.6},
		{"CodeGen-16B-Verilog-SFT", "Closed Source", 28.8},
		{"RTLFixer", "Closed Source", 36.8},
		{"VeriAssist", "Closed Source", 50.5},
		{"GPT-4o", "Closed Source", 51.29},
		{"Claude 3.5 Sonnet", "Closed Source", 60.23},
		{"AIVRIL", "Closed Source", 67.3},
	}
}
