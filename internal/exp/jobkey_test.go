package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/edatool"
	"repro/internal/llm"
	"repro/internal/runner"
)

// Pinned digest of every job key the sweeps mint (see TestJobKeyDigest).
const (
	jobKeyCount  = 14976
	jobKeyDigest = "719a554f655a417fac52ba6c744a3d58b8bad46cdd41ef9265b725b506ab9dd8"
)

// TestJobKeyDigest pins the runner job key of every cell the paper's
// sweeps mint: each model over both HDLs under the default
// configuration, each baseline comparator and each iteration budget,
// over the whole suite, for the offline and the flaky provider. A job
// key addresses a cached result, a checkpoint and a job record, so a
// change here orphans every one of them. The cells are dispatched to
// a stub that records the key, so nothing is evaluated.
func TestJobKeyDigest(t *testing.T) {
	problems := bench.NewSuite().Problems
	index := make(map[string]int, len(problems))
	for i, p := range problems {
		index[p.ID] = i
	}
	configures := []func(*core.Config){nil}
	for _, c := range baseline.Comparators() {
		configures = append(configures, c.Configure)
	}
	for _, b := range []int{1, 2, 3, 5, 8} {
		configures = append(configures, func(c *core.Config) {
			c.MaxSyntaxIters = b
			c.MaxFuncIters = b
		})
	}

	h := sha256.New()
	n := 0
	for _, prov := range []string{"", "flaky"} {
		for _, model := range llm.Profiles() {
			for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
				for _, configure := range configures {
					var mu sync.Mutex
					keys := make([]string, len(problems))
					Run(model, lang, Options{
						Problems:  problems,
						Configure: configure,
						Provider:  prov,
						Runner:    &runner.Runner{Workers: 4},
						Dispatch: func(job runner.Job, _ RemoteCell) (ProblemOutcome, error) {
							mu.Lock()
							keys[index[job.Problem]] = job.Key()
							mu.Unlock()
							return ProblemOutcome{ID: job.Problem}, nil
						},
					})
					for _, k := range keys {
						h.Write([]byte(k + "\n"))
						n++
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); n != jobKeyCount || got != jobKeyDigest {
		t.Errorf("job keys: %d, digest %s; want %d, %s", n, got, jobKeyCount, jobKeyDigest)
	}
}
