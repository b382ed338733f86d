package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/exp"
)

// goldenPath is the seed-era outcome snapshot the experiment tests pin
// (relative to the repository root, where the benchmark runs).
const goldenPath = "internal/exp/testdata/seed_golden.json"

//go:embed expected/cells.tsv
var cellsTSV string

//go:embed expected/seeds.json
var seedsJSON []byte

// cellKey names one experiment cell. config is the core.Config
// fingerprint with the simulation limit normalised to the default, so
// service passes (which vary the limit to mint fresh job IDs) share
// the in-process expectation.
func cellKey(problem, model, lang, config string) string {
	return problem + "\t" + model + "\t" + lang + "\t" + config
}

// expectedCell is one committed outcome: the digest of the full
// ProblemOutcome JSON plus the fields the aggregate checks sum.
type expectedCell struct {
	digest  string
	pass    [4]int     // baseline syntax, baseline func, loop syntax, loop func
	latency [3]float64 // modelled Fig. 3 seconds: baseline, syntax, func
}

// sweepTally is what a (model, language, config) sweep over a sample
// must reproduce: pass@1S/pass@1F counts and modelled latency totals.
type sweepTally struct {
	Model    string     `json:"model"`
	Language string     `json:"language"`
	Config   string     `json:"config"`
	Pass     [4]int     `json:"pass"`
	Latency  [3]float64 `json:"latency_s"`
}

// seedExpectation pins one workload at one named seed: its sample and
// the tallies of each of its sweeps.
type seedExpectation struct {
	Problems []string     `json:"problems"`
	Sweeps   []sweepTally `json:"sweeps"`
}

// gate checks every outcome the benchmark produces. A mismatch counts
// the cell as failed and makes the run exit non-zero.
type gate struct {
	cells  map[string]expectedCell
	golden map[string]string // model \t language \t problem -> canonical outcome JSON
	seeds  map[string]map[string]seedExpectation

	mu       sync.Mutex
	problems []string // first few mismatch descriptions
	bad      int
}

func digest(o exp.ProblemOutcome) string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // ProblemOutcome is plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func tallyOf(o exp.ProblemOutcome) ([4]int, [3]float64) {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return [4]int{b2i(o.BaselineSyntaxOK), b2i(o.BaselineFuncOK), b2i(o.LoopSyntaxOK), b2i(o.LoopFuncOK)},
		[3]float64{o.Latency.Baseline, o.Latency.Syntax, o.Latency.Func}
}

// loadGate parses the committed expectations and the golden snapshot.
func loadGate() (*gate, error) {
	g := &gate{cells: map[string]expectedCell{}, golden: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(cellsTSV))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 12 {
			return nil, fmt.Errorf("expected/cells.tsv: bad line %q", line)
		}
		var c expectedCell
		c.digest = f[4]
		for i := range c.pass {
			c.pass[i] = int(f[5+i][0] - '0')
		}
		for i := range c.latency {
			v, err := strconv.ParseFloat(f[9+i], 64)
			if err != nil {
				return nil, fmt.Errorf("expected/cells.tsv: %w", err)
			}
			c.latency[i] = v
		}
		g.cells[cellKey(f[0], f[1], f[2], f[3])] = c
	}
	if err := json.Unmarshal(seedsJSON, &g.seeds); err != nil {
		return nil, fmt.Errorf("expected/seeds.json: %w", err)
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	g.golden = golden
	return g, nil
}

// loadGolden reads the seed-era snapshot into canonical JSON strings
// keyed by model, language and problem.
func loadGolden() (map[string]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("golden outcomes: %w", err)
	}
	var cells []struct {
		Model    string            `json:"model"`
		Language string            `json:"language"`
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		return nil, fmt.Errorf("golden outcomes: %w", err)
	}
	out := map[string]string{}
	for _, c := range cells {
		for _, o := range c.Outcomes {
			canon, err := canonical(o)
			if err != nil {
				return nil, fmt.Errorf("golden outcomes: %w", err)
			}
			var id struct{ ID string }
			if err := json.Unmarshal(o, &id); err != nil {
				return nil, fmt.Errorf("golden outcomes: %w", err)
			}
			out[c.Model+"\t"+c.Language+"\t"+id.ID] = canon
		}
	}
	return out, nil
}

// canonical re-encodes a JSON document with sorted keys, so formatting
// cannot mask or fake a difference.
func canonical(raw []byte) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bad++
	if len(g.problems) < 8 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// checkCell compares one outcome with its committed expectation and,
// for default-configuration cells, with the golden snapshot.
func (g *gate) checkCell(model, lang, config string, o exp.ProblemOutcome) bool {
	want, ok := g.cells[cellKey(o.ID, model, lang, config)]
	if !ok {
		g.fail("%s/%s/%s/%s: no expected outcome", o.ID, model, lang, config)
		return false
	}
	if d := digest(o); d != want.digest {
		g.fail("%s/%s/%s/%s: outcome digest %s, want %s", o.ID, model, lang, config, d, want.digest)
		return false
	}
	if config == defaultConfig && !g.matchesGolden(model, lang, o) {
		g.fail("%s/%s/%s: outcome differs from %s", o.ID, model, lang, goldenPath)
		return false
	}
	return true
}

// matchesGolden reports whether a default-configuration outcome agrees
// with the golden snapshot (true when the snapshot lacks the cell).
func (g *gate) matchesGolden(model, lang string, o exp.ProblemOutcome) bool {
	gold, ok := g.golden[model+"\t"+lang+"\t"+o.ID]
	if !ok {
		return true
	}
	b, err := json.Marshal(o)
	if err != nil {
		return false
	}
	got, err := canonical(b)
	return err == nil && got == gold
}

// checkSweep gates one exp.Run summary over sample: every cell must be
// present and match, and the sweep's pass counts and latency totals
// must equal those the expectations sum to. It returns the number of
// failed cells.
func (g *gate) checkSweep(sum *exp.Summary, config string, sample []*bench.Problem) int {
	lang := sum.Language.String()
	failed := len(sample) - len(sum.Outcomes)
	if failed > 0 {
		g.fail("%s/%s/%s: %d cells errored", sum.Model, lang, config, failed)
	}
	got := sweepTally{Model: sum.Model, Language: lang, Config: config}
	for _, o := range sum.Outcomes {
		if !g.checkCell(sum.Model, lang, config, o) {
			failed++
		}
		p, l := tallyOf(o)
		for i := range p {
			got.Pass[i] += p[i]
		}
		for i := range l {
			got.Latency[i] += l[i]
		}
	}
	if want := g.expectTally(sum.Model, lang, config, sample); got != want {
		g.fail("%s/%s/%s: tally %+v, want %+v", sum.Model, lang, config, got, want)
		if failed == 0 {
			failed = len(sample)
		}
	}
	return failed
}

// expectTally sums the committed expectations over sample, in sample
// order (the order exp.Run reports outcomes in).
func (g *gate) expectTally(model, lang, config string, sample []*bench.Problem) sweepTally {
	t := sweepTally{Model: model, Language: lang, Config: config}
	for _, p := range sample {
		c := g.cells[cellKey(p.ID, model, lang, config)]
		for i := range c.pass {
			t.Pass[i] += c.pass[i]
		}
		for i := range c.latency {
			t.Latency[i] += c.latency[i]
		}
	}
	return t
}

// checkSeed verifies a named seed's pinned sample and sweep tallies
// (other seeds are covered by the per-cell expectations alone).
func (g *gate) checkSeed(workload string, seed int64, sample []*bench.Problem, sweeps []sweep) {
	want, ok := g.seeds[strconv.FormatInt(seed, 10)][workload]
	if !ok {
		return
	}
	ids := problemIDs(sample)
	if strings.Join(ids, ",") != strings.Join(want.Problems, ",") {
		g.fail("seed %d: sample %v, want %v", seed, ids, want.Problems)
		return
	}
	for i, s := range sweeps {
		got := g.expectTally(s.model.Name(), s.lang.String(), s.config, sample)
		if i >= len(want.Sweeps) || want.Sweeps[i] != got {
			g.fail("seed %d: sweep %d tally %+v differs from expected/seeds.json", seed, i, got)
			return
		}
	}
}

func problemIDs(ps []*bench.Problem) []string {
	ids := make([]string, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}
