package main

import (
	_ "embed"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
)

//go:embed expected/costs.tsv
var costsTSV string

// warmCosts maps each problem to its measured warm repair-mix cost
// (expected/costs.tsv, written by -write-costs).
func warmCosts() map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(costsTSV, "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// Seeds named in the README: buildSeed is the seed the benchmark was
// tuned on, heldOutSeed is kept back for checking later claims.
const (
	buildSeed   = 1
	heldOutSeed = 2
)

// sampleTolerance is how far a sample's cost proxies may sit from a
// quarter of the suite's before the sampler draws again.
const sampleTolerance = 0.01

// maxSampleDraws bounds the redraws; the closest draw wins after that.
const maxSampleDraws = 20000

// sampleProblems picks about a quarter of the suite by stratified
// sampling. The strata are the categories, each split into runs of four
// problems of similar reference-testbench size, largest first: every
// full run gives one problem, and the partial runs of small problems
// left at the end of each category share the remaining picks by largest remainder (ties broken by the
// seed). Problem costs are heavy-tailed: reference testbenches range
// from 0.5 KB to 72 KB, the front ends cost up to quadratic time in
// source length, and a few exhaustive 8-bit problems dominate the warm
// repair loop. So the sampler redraws until three cost proxies of the
// sample are within sampleTolerance of a quarter of the suite's totals:
// summed testbench bytes and summed squared testbench bytes (both
// languages), and the summed warm repair-mix cost from
// expected/costs.tsv. Each seed thus
// gets a different sample of the same shape. The result is in suite
// order and depends only on the seed.
func sampleProblems(suite *bench.Suite, seed int64) []*bench.Problem {
	byCat := map[string][]*bench.Problem{}
	for _, p := range suite.Problems {
		byCat[p.Category] = append(byCat[p.Category], p)
	}
	var strata [][]*bench.Problem
	var partial []int // indices into strata of the short runs
	for _, c := range suite.Categories() {
		ps := byCat[c]
		sort.SliceStable(ps, func(i, j int) bool {
			li, _ := tbCost(ps[i])
			lj, _ := tbCost(ps[j])
			return li > lj
		})
		for i := 0; i < len(ps); i += 4 {
			end := min(i+4, len(ps))
			if end-i < 4 {
				partial = append(partial, len(strata))
			}
			strata = append(strata, ps[i:end])
		}
	}
	n := len(suite.Problems)
	k := (n + 2) / 4

	warm := warmCosts()
	var linAll, sqAll, warmAll float64
	for _, p := range suite.Problems {
		l, s := tbCost(p)
		linAll += l
		sqAll += s
		warmAll += warm[p.ID]
	}
	share := float64(k) / float64(n)

	rng := rand.New(rand.NewSource(seed))
	var best []*bench.Problem
	bestErr := math.Inf(1)
	for draw := 0; draw < maxSampleDraws && bestErr > sampleTolerance; draw++ {
		// Partial runs of r problems take one pick each, in order of
		// r/4 with seeded ties, until k picks are made.
		take := map[int]bool{}
		for i := range strata {
			take[i] = len(strata[i]) == 4
		}
		left := k - (len(strata) - len(partial))
		order := rng.Perm(len(partial))
		sort.SliceStable(order, func(a, b int) bool {
			return len(strata[partial[order[a]]]) > len(strata[partial[order[b]]])
		})
		for _, o := range order[:max(0, min(left, len(order)))] {
			take[partial[o]] = true
		}
		var pick []*bench.Problem
		var lin, sq, wc float64
		for i, st := range strata {
			if !take[i] {
				continue
			}
			p := st[rng.Intn(len(st))]
			pick = append(pick, p)
			l, s := tbCost(p)
			lin += l
			sq += s
			wc += warm[p.ID]
		}
		e := math.Max(math.Abs(lin/(linAll*share)-1), math.Abs(sq/(sqAll*share)-1))
		if warmAll > 0 {
			e = math.Max(e, math.Abs(wc/(warmAll*share)-1))
		}
		if e < bestErr {
			best, bestErr = pick, e
		}
	}
	sort.Slice(best, func(i, j int) bool { return best[i].Index < best[j].Index })
	return best
}

// tbCost returns the linear and squared reference-testbench size of a
// problem, summed over both languages, in KB and KB².
func tbCost(p *bench.Problem) (lin, sq float64) {
	v := float64(len(p.RefTBVerilog)) / 1024
	h := float64(len(p.RefTBVHDL)) / 1024
	return v + h, v*v + h*h
}
