package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/edatool"
	"repro/internal/eval"
	"repro/internal/exp"
)

// pairByModel groups Verilog/VHDL summaries per model preserving the
// profile order used by the paper.
func pairByModel(sums []*exp.Summary) [](struct{ V, H *exp.Summary }) {
	type pair = struct{ V, H *exp.Summary }
	order := []string{}
	byModel := map[string]*pair{}
	for _, s := range sums {
		p, ok := byModel[s.Model]
		if !ok {
			p = &pair{}
			byModel[s.Model] = p
			order = append(order, s.Model)
		}
		if s.Language == edatool.Verilog {
			p.V = s
		} else {
			p.H = s
		}
	}
	out := make([]pair, 0, len(order))
	for _, m := range order {
		out = append(out, *byModel[m])
	}
	return out
}

// Table1 renders the pass-rate summary in the paper's layout.
func Table1(sums []*exp.Summary) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Summary of pass-rate results (all values %)\n")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	fmt.Fprintf(&sb, "%-32s | %8s %8s %8s | %8s %8s %8s\n",
		"Technology", "V p@1S", "V p@1F", "V dF", "VHDL p@1S", "VHDL p@1F", "VHDL dF")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	pairs := pairByModel(sums)
	// Baseline rows.
	for _, p := range pairs {
		vS, vF, _, _ := p.V.Rates()
		hS, hF, _, _ := p.H.Rates()
		fmt.Fprintf(&sb, "%-32s | %8.2f %8.2f %8s | %8.2f %8.2f %8s\n",
			p.V.Model, vS, vF, "-", hS, hF, "-")
	}
	// AIVRIL2 rows.
	var vDeltas, hDeltas []float64
	for _, p := range pairs {
		_, _, vS, vF := p.V.Rates()
		_, _, hS, hF := p.H.Rates()
		vD, vOK := p.V.DeltaF()
		hD, hOK := p.H.DeltaF()
		vDs, hDs := "N/A", "N/A"
		if vOK {
			vDs = fmt.Sprintf("%.2f", vD)
			vDeltas = append(vDeltas, vD)
		}
		if hOK {
			hDs = fmt.Sprintf("%.2f", hD)
			hDeltas = append(hDeltas, hD)
		}
		fmt.Fprintf(&sb, "%-32s | %8.2f %8.2f %8s | %8.2f %8.2f %8s\n",
			"AIVRIL2 ("+p.V.Model+")", vS, vF, vDs, hS, hF, hDs)
	}
	fmt.Fprintf(&sb, "%-32s | %8s %8s %8.2f | %8s %8s %8.2f\n",
		"Average", "", "", eval.Mean(vDeltas), "", "", eval.Mean(hDeltas))
	return sb.String()
}

// Fig3 renders the latency breakdown series.
func Fig3(sums []*exp.Summary) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: Average latency breakdown across optimization loops (seconds)\n")
	sb.WriteString(strings.Repeat("-", 86) + "\n")
	fmt.Fprintf(&sb, "%-24s | %-8s | %12s %14s %16s %9s\n",
		"Model", "Language", "Baseline", "Syntax Loop", "Functional Loop", "Total")
	sb.WriteString(strings.Repeat("-", 86) + "\n")
	for _, s := range sums {
		total := s.AvgBaselineLatency + s.AvgSyntaxLatency + s.AvgFuncLatency
		fmt.Fprintf(&sb, "%-24s | %-8s | %12.2f %14.2f %16.2f %9.2f\n",
			s.Model, s.Language, s.AvgBaselineLatency, s.AvgSyntaxLatency, s.AvgFuncLatency, total)
	}
	sb.WriteString("\nAverage convergence cycles:\n")
	for _, s := range sums {
		fmt.Fprintf(&sb, "  %-24s %-8s syntax %.2f  functional %.2f\n",
			s.Model, s.Language, s.AvgSyntaxIters, s.AvgFuncIters)
	}
	return sb.String()
}

// Table2Row is one comparison entry.
type Table2Row struct {
	Technology string
	License    string
	PassAt1F   float64
	Measured   bool
}

// Table2 assembles the state-of-the-art comparison: cited literature
// rows plus our measured rows (Verilog only, as in the paper).
func Table2(measured []Table2Row) string {
	rows := []Table2Row{}
	for _, l := range baseline.Literature() {
		rows = append(rows, Table2Row{l.Technology, l.License, l.PassAt1F, false})
	}
	rows = append(rows, measured...)
	var sb strings.Builder
	sb.WriteString("Table 2: Comparison of state-of-the-art RTL generation techniques (Verilog pass@1F %)\n")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	fmt.Fprintf(&sb, "%-36s | %-13s | %9s | %s\n", "Technology", "License", "pass@1F", "Source")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, r := range rows {
		src := "cited"
		if r.Measured {
			src = "measured"
		}
		fmt.Fprintf(&sb, "%-36s | %-13s | %9.2f | %s\n", r.Technology, r.License, r.PassAt1F, src)
	}
	return sb.String()
}

// Ablation renders comparator outcomes (E4) side by side.
func Ablation(rows map[string]*exp.Summary) string {
	var names []string
	for k := range rows {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("Ablation: design-choice comparison (Verilog, Claude profile)\n")
	sb.WriteString(strings.Repeat("-", 78) + "\n")
	fmt.Fprintf(&sb, "%-24s | %9s %9s %9s %9s | %9s\n",
		"Variant", "base p@1S", "base p@1F", "loop p@1S", "loop p@1F", "avg lat s")
	sb.WriteString(strings.Repeat("-", 78) + "\n")
	for _, name := range names {
		s := rows[name]
		bS, bF, lS, lF := s.Rates()
		total := s.AvgBaselineLatency + s.AvgSyntaxLatency + s.AvgFuncLatency
		fmt.Fprintf(&sb, "%-24s | %9.2f %9.2f %9.2f %9.2f | %9.2f\n", name, bS, bF, lS, lF, total)
	}
	return sb.String()
}

// IterSweep renders the iteration-budget sweep (E5).
func IterSweep(budgets []int, sums []*exp.Summary) string {
	var sb strings.Builder
	sb.WriteString("Iteration-budget sweep (Verilog, Claude profile)\n")
	sb.WriteString(strings.Repeat("-", 60) + "\n")
	fmt.Fprintf(&sb, "%-8s | %9s %9s | %12s\n", "budget", "loop p@1S", "loop p@1F", "avg total s")
	sb.WriteString(strings.Repeat("-", 60) + "\n")
	for i, s := range sums {
		_, _, lS, lF := s.Rates()
		total := s.AvgBaselineLatency + s.AvgSyntaxLatency + s.AvgFuncLatency
		fmt.Fprintf(&sb, "%-8d | %9.2f %9.2f | %12.2f\n", budgets[i], lS, lF, total)
	}
	return sb.String()
}

// CategoryTable renders the per-category functional pass rates of a
// summary, sorted by category name.
func CategoryTable(s *exp.Summary) string {
	rates := s.CategoryRates()
	var names []string
	for k := range rates {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-category pass@1F: %s / %s\n", s.Model, s.Language)
	sb.WriteString(strings.Repeat("-", 44) + "\n")
	for _, n := range names {
		e := rates[n]
		fmt.Fprintf(&sb, "  %-14s %3d/%3d  %6.1f%%\n", n, e[0], e[1], 100*float64(e[0])/float64(e[1]))
	}
	return sb.String()
}
