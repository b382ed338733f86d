package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
	"repro/internal/llm"
)

// Pinned size and SHA-256 of the checkpoint corpus checkpointCorpus
// collects. A checkpoint is what a resumed run continues from, and a
// job's on-disk checkpoint is these bytes, indented. Change the
// constants only for an intended change to the checkpoint format.
const (
	checkpointCorpusCount  = 6185
	checkpointCorpusSHA256 = "63c68890ad2df1bdf7ad5171d8674ebdd8c4d277679fc94f09f1430a3f60e093"
)

// checkpointCorpus runs every model over both HDLs and every 4th suite
// problem, with the bench frozen and with co-generation, and returns
// the JSON of every checkpoint those runs take, in run order: the
// fresh machine's, then the one persisted after each step. One more
// run is cancelled after its third checkpoint, so the corpus ends with
// the checkpoints of an aborted run.
func checkpointCorpus(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	collect := func(cfg Config, prob *bench.Problem, cancelAfter int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		m := New(cfg).NewMachine(prob)
		start, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(start)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
		store := &memStore{}
		n := 0
		res, err := m.RunCheckpointed(ctx, store, func(cp *Checkpoint) error {
			if cp == nil {
				t.Fatalf("%s: step persisted no checkpoint", prob.ID)
			}
			out = append(out, store.data)
			if n++; n == cancelAfter {
				cancel()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", prob.ID, err)
		}
		if cancelAfter > 0 && !res.Aborted {
			t.Fatalf("%s: cancelled run did not abort", prob.ID)
		}
	}
	problems := bench.NewSuite().Problems
	for _, model := range llm.Profiles() {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			for i := 0; i < len(problems); i += 4 {
				for _, freeze := range []bool{true, false} {
					cfg := DefaultConfig(model, lang)
					cfg.FreezeTestbench = freeze
					collect(cfg, problems[i], 0)
				}
			}
		}
	}
	collect(DefaultConfig(llm.Profiles()[0], edatool.Verilog), problems[len(problems)-1], 3)
	return out
}

// TestCheckpointDigest pins the bytes of every checkpoint of a fixed
// set of runs, and demands that each of them restores. The corpus
// reaches every machine state, co-generation's regenerated benches and
// an aborted run.
func TestCheckpointDigest(t *testing.T) {
	cps := checkpointCorpus(t)
	h := sha256.New()
	states := map[string]bool{}
	problems := map[string]*bench.Problem{}
	for _, p := range bench.NewSuite().Problems {
		problems[p.ID] = p
	}
	for _, data := range cps {
		h.Write(data)
		h.Write([]byte{'\n'})
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		states[fmt.Sprint(cp.State)] = true
		model := llm.ProfileByName(cp.Model)
		lang := edatool.Verilog
		if cp.Language == edatool.VHDL.String() {
			lang = edatool.VHDL
		}
		cfg := DefaultConfig(model, lang)
		cfg.FreezeTestbench = cp.Config == cfg.Fingerprint()
		if _, err := New(cfg).Restore(&cp, problems[cp.Problem]); err != nil {
			t.Fatalf("%s/%s/%s at %s: restore: %v", cp.Model, cp.Language, cp.Problem, cp.State, err)
		}
	}
	for s := State(0); s < NumStates; s++ {
		if !states[s.String()] {
			t.Errorf("no checkpoint at state %s", s)
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if len(cps) != checkpointCorpusCount || sum != checkpointCorpusSHA256 {
		t.Errorf("checkpoint corpus: %d checkpoints, sha256 %s; pinned %d, %s",
			len(cps), sum, checkpointCorpusCount, checkpointCorpusSHA256)
	}
}
