package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/exp"
)

// Paths written by -write-expected, relative to the repository root.
const (
	cellsPath = "perfbench/expected/cells.tsv"
	seedsPath = "perfbench/expected/seeds.json"
	costsPath = "perfbench/expected/costs.tsv"
)

// writeExpectations regenerates the outcome expectations from the
// current code through exp's own in-process executor (no dispatch
// seam): every cell any seed can select, i.e. the Table-1 matrix and
// the repair mix over the full suite. It refuses to write when the
// outcomes disagree with the golden snapshot, or when raising the
// simulation limit (as the service leg does per pass) changes any
// outcome. It also pins the samples and sweep tallies of the named
// seeds.
func writeExpectations(g *gate, workers int, stderr io.Writer) error {
	suite := bench.NewSuite()
	cache := edatool.NewDesignCache()
	runAll := func(s sweep, simTime uint64) (*exp.Summary, error) {
		sum := exp.Run(s.model, s.lang, exp.Options{
			Problems:    suite.Problems,
			MaxWorkers:  workers,
			DesignCache: cache,
			Configure:   withSimTime(s.configure, simTime),
		})
		if sum.N != len(suite.Problems) {
			return nil, fmt.Errorf("%s/%s/%s: %d of %d cells errored", s.model.Name(), s.lang, s.config, len(suite.Problems)-sum.N, len(suite.Problems))
		}
		return sum, nil
	}

	outcomes := map[string]exp.ProblemOutcome{}
	for _, s := range append(table1Sweeps(), repairSweeps()...) {
		sum, err := runAll(s, defaultSimTime)
		if err != nil {
			return err
		}
		for _, o := range sum.Outcomes {
			outcomes[cellKey(o.ID, s.model.Name(), s.lang.String(), s.config)] = o
		}
		fmt.Fprintf(stderr, "perfbench: expected %s/%s/%s\n", s.model.Name(), s.lang, s.config)
	}
	for _, s := range repairSweeps() {
		sum, err := runAll(s, defaultSimTime+1000)
		if err != nil {
			return err
		}
		for _, o := range sum.Outcomes {
			if digest(o) != digest(outcomes[cellKey(o.ID, s.model.Name(), s.lang.String(), s.config)]) {
				return fmt.Errorf("%s/%s/%s: outcome depends on the simulation limit", o.ID, s.lang, s.config)
			}
		}
	}

	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Expected outcome of every cell the benchmark can run, written by -write-expected.\n")
	b.WriteString("# problem\tmodel\tlanguage\tconfig\tdigest\tbase_syntax\tbase_func\tloop_syntax\tloop_func\tlat_baseline_s\tlat_syntax_s\tlat_func_s\n")
	g.cells = map[string]expectedCell{}
	for _, k := range keys {
		o := outcomes[k]
		pass, lat := tallyOf(o)
		f := strings.Split(k, "\t")
		if f[3] == defaultConfig && !g.matchesGolden(f[1], f[2], o) {
			return fmt.Errorf("%s/%s/%s: outcome differs from %s", o.ID, f[1], f[2], goldenPath)
		}
		c := expectedCell{digest: digest(o), pass: pass, latency: lat}
		g.cells[k] = c
		fields := append([]string{k, c.digest},
			strconv.Itoa(pass[0]), strconv.Itoa(pass[1]), strconv.Itoa(pass[2]), strconv.Itoa(pass[3]))
		for _, l := range lat {
			fields = append(fields, strconv.FormatFloat(l, 'g', -1, 64))
		}
		b.WriteString(strings.Join(fields, "\t") + "\n")
	}
	if err := os.WriteFile(cellsPath, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return writeSeeds(g, suite)
}

// writeSeeds pins the samples and sweep tallies of the named seeds,
// summed from the expectations in g.
func writeSeeds(g *gate, suite *bench.Suite) error {
	seeds := map[string]map[string]seedExpectation{}
	for _, seed := range []int64{buildSeed, heldOutSeed} {
		sample := sampleProblems(suite, seed)
		m := map[string]seedExpectation{}
		for name, sweeps := range map[string][]sweep{
			"table1-cold": table1Sweeps(),
			"repair-warm": repairSweeps(),
		} {
			e := seedExpectation{Problems: problemIDs(sample)}
			for _, s := range sweeps {
				e.Sweeps = append(e.Sweeps, g.expectTally(s.model.Name(), s.lang.String(), s.config, sample))
			}
			m[name] = e
		}
		seeds[strconv.FormatInt(seed, 10)] = m
	}
	js, err := json.MarshalIndent(seeds, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(seedsPath, append(js, '\n'), 0o644)
}

// writeCosts measures each problem's warm repair-mix cost — the fastest
// of five passes of its repair-mix cells on a warm design cache, one
// worker — for the sampler's cost balancing. Only the relative sizes
// matter, so the table need not be regenerated when the code gets
// faster; regenerating it changes which problems each seed selects.
func writeCosts(stderr io.Writer) error {
	suite := bench.NewSuite()
	cache := edatool.NewDesignCache()
	sweeps := repairSweeps()
	runAll := func(p *bench.Problem) {
		for _, s := range sweeps {
			exp.Run(s.model, s.lang, exp.Options{
				Problems:    []*bench.Problem{p},
				MaxWorkers:  1,
				DesignCache: cache,
				Configure:   s.configure,
			})
		}
	}
	var b strings.Builder
	b.WriteString("# Warm repair-mix cost per problem in ms (fastest of 5 warm passes, one worker), written by -write-costs.\n")
	for _, p := range suite.Problems {
		runAll(p)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			runAll(p)
			best = min(best, time.Since(t0))
		}
		fmt.Fprintf(&b, "%s\t%.4f\n", p.ID, float64(best)/1e6)
	}
	fmt.Fprintf(stderr, "perfbench: measured %d problems\n", len(suite.Problems))
	return os.WriteFile(costsPath, []byte(b.String()), 0o644)
}
