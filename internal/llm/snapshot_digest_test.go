package llm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
)

// Pinned size and SHA-256 of the snapshot corpus
// TestSessionSnapshotDigest collects. A session snapshot rides inside
// every mid-run pipeline checkpoint. Change the constants only for an
// intended change to the snapshot format or the conversation.
const (
	snapshotCorpusCount  = 2106
	snapshotCorpusSHA256 = "2f5d141dc6ec45d9d1fe4e1689e8f1c5764132fed4000ccaaf8b55fe53cab7f4"
)

// TestSessionSnapshotDigest snapshots a session before its first turn
// and after every turn of a fixed conversation, for every model, both
// HDLs and every 4th suite problem. The conversation ends in
// co-generation: the bench is regenerated after the RTL. It pins the
// bytes of all of those snapshots, and demands that each one restores
// into a fresh session which snapshots to the same bytes.
func TestSessionSnapshotDigest(t *testing.T) {
	problems := bench.NewSuite().Problems
	h := sha256.New()
	n := 0
	for _, p := range Profiles() {
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			for i := 0; i < len(problems); i += 4 {
				req := GenRequest{Problem: problems[i], Language: lang}
				s := p.NewSession(req).(*simSession)
				turns := append(conversationTurns(s),
					s.GenerateTestbench,
					func() (string, float64) { return s.GenerateRTL(feedbackFor(FunctionalFeedback)) },
				)
				for k := 0; k <= len(turns); k++ {
					if k > 0 {
						turns[k-1]()
					}
					snap, err := s.Snapshot()
					if err != nil {
						t.Fatalf("%s/%s/%s turn %d: snapshot: %v", p.Name(), lang, req.Problem.ID, k, err)
					}
					h.Write(snap)
					h.Write([]byte{'\n'})
					n++
					fresh := p.NewSession(req)
					if err := fresh.Restore(snap); err != nil {
						t.Fatalf("%s/%s/%s turn %d: restore: %v", p.Name(), lang, req.Problem.ID, k, err)
					}
					again, err := fresh.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again, snap) {
						t.Fatalf("%s/%s/%s turn %d: restored session snapshots to\n%s\nwant\n%s",
							p.Name(), lang, req.Problem.ID, k, again, snap)
					}
				}
			}
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if n != snapshotCorpusCount || sum != snapshotCorpusSHA256 {
		t.Errorf("snapshot corpus: %d snapshots, sha256 %s; pinned %d, %s",
			n, sum, snapshotCorpusCount, snapshotCorpusSHA256)
	}
}
