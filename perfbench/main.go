// Command perfbench is the repository benchmark. It drives two
// workloads, table1-cold and repair-warm, through the public entry
// points of the experiment harness, the pipeline and the EDA
// toolchain, plus a job-service leg in the traced repair-warm run
// (serve.New, serve.NewHTTPServer, serve/client). It prints every
// metric by name with its unit, and checks every outcome against the
// committed expectations:
//
//	bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run. See perfbench/README.md for the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
)

// setups is how many times each workload is set up per run; setup_s
// is the median. The warm workloads pay a cold warm-up pass each time.
var setups = map[string]int{"table1-cold": 7, "repair-warm": 3}

// coverTolerance is how far the top-level spans' summed durations may
// sit from the traced window's wall time before the run warns.
const coverTolerance = 0.02

// replayBudget bounds the simulations the traced run replays.
const replayBudget = 20 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-cold | repair-warm")
	seed := fs.Int64("seed", buildSeed, "seed selecting the stratified problem sample")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	writeExpected := fs.Bool("write-expected", false, "regenerate the outcome expectations from the current code and exit")
	writeCostTable := fs.Bool("write-costs", false, "re-measure the sampler's per-problem cost table and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, err := loadGate()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workers := runtime.NumCPU()
	if *writeCostTable {
		if err := writeCosts(stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *writeExpected {
		if err := writeExpectations(g, workers, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var wl func() workload
	switch *name {
	case "table1-cold":
		wl = func() workload { return newTable1Cold(g, workers) }
	case "repair-warm":
		wl = func() workload { return newRepairWarm(g, workers) }
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (table1-cold | repair-warm)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := runWorkload(*name, wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, workers, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range g.problems {
		fmt.Fprintf(stderr, "perfbench: outcome gate: %s\n", p)
	}
	res.Correct = g.bad == 0 && res.Failed == 0
	fmt.Fprintln(stdout, res.noise)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	noise     string
}

// runWorkload sets the workload up (several times untraced, reporting
// the median), measures it, and assembles the metrics.
func runWorkload(name string, newWL func() workload, seed int64, d time.Duration, traced bool, workers int, stderr io.Writer) (*result, error) {
	n := setups[name]
	if traced {
		n = 1
	}
	// The sample is the benchmark's input, drawn before any timing.
	ids := problemIDs(sampleProblems(bench.NewSuite(), seed))
	var wl workload
	var err error
	var setupS, suiteMs []float64
	for i := 0; i < n; i++ {
		if wl != nil {
			wl.close()
		}
		wl = newWL()
		t0 := time.Now()
		err = wl.setup(ids)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err == nil {
			err = wl.base().checkWarm()
		}
		if err != nil {
			wl.close()
			return nil, err
		}
		suiteMs = append(suiteMs, float64(wl.base().suiteTime)/1e6)
	}
	defer wl.close()
	c := wl.base()
	c.gate.checkSeed(name, seed, c.sample, c.sweeps)

	win := measure(wl, d, nil)
	res := &result{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	res.noise = noiseLine(name, seed, workers, win, len(c.sample))
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d cells in %d passes (%v), %.2fs window, setups %v s\n",
		name, seed, win.attempted, win.passes, win.passWall, win.wall.Seconds(), setupS)
	if !traced {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		res.set("cells_per_s", win.cellsPerSec(), "1/s")
		res.set("setup_s", median(setupS), "s")
		res.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
		res.set("alloc_mb_per_cell", float64(win.alloc)/float64(win.attempted)/(1<<20), "MB")
		return res, nil
	}

	rec := newRecorder()
	tw := measure(wl, d, rec)
	res.Attempted += tw.attempted
	res.Failed += tw.failed
	layers(res, wl, win, tw, rec, median(suiteMs), workers, stderr)
	if name == "repair-warm" {
		if err := serviceLeg(res, c.gate, ids, workers, stderr); err != nil {
			return nil, fmt.Errorf("service leg: %w", err)
		}
	}
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// noiseLine reports what explains run-to-run spread: GC activity,
// design-cache parse misses inside the measured window, the filesystem
// the job service keeps its state on (the checkout's), the CPU budget,
// the Go version and the seed.
func noiseLine(name string, seed int64, workers int, win window, sample int) string {
	return strings.Join([]string{
		"noise:",
		"workload=" + name,
		fmt.Sprintf("seed=%d", seed),
		fmt.Sprintf("sample=%d", sample),
		fmt.Sprintf("nproc=%d", workers),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		fmt.Sprintf("passes=%d", win.passes),
		fmt.Sprintf("gc_cycles=%d", win.gcCycles),
		fmt.Sprintf("gc_pause_ms=%.3f", float64(win.gcPause)/1e6),
		fmt.Sprintf("window_parse_misses=%d", win.cache.ParseMisses),
		"state_fs=" + fsName("."),
	}, " ")
}

// pct is the nearest-rank percentile of sorted durations, in ms.
func pct(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
