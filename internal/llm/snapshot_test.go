package llm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/edatool"
)

func snapshotSession(t *testing.T, prob *bench.Problem, lang edatool.Language) *simSession {
	t.Helper()
	p := ProfileByName("claude-3.5-sonnet")
	if p == nil {
		t.Fatal("profile missing")
	}
	return p.NewSession(GenRequest{Problem: prob, Language: lang}).(*simSession)
}

// feedbackFor builds a corrective prompt that exercises the repair
// paths.
func feedbackFor(kind FeedbackKind) *Feedback {
	return &Feedback{Kind: kind, Items: []FeedbackItem{
		{Line: 3, Message: "syntax error near x"},
		{Line: 7, Message: "unexpected token"},
	}}
}

// conversationTurns is a fixed six-turn conversation covering every
// session op the pipeline uses.
func conversationTurns(s *simSession) []func() (string, float64) {
	return []func() (string, float64){
		s.GenerateTestbench,
		func() (string, float64) { return s.RepairTestbench(feedbackFor(SyntaxFeedback)) },
		func() (string, float64) { return s.GenerateRTL(nil) },
		func() (string, float64) { return s.GenerateRTL(feedbackFor(SyntaxFeedback)) },
		func() (string, float64) { return s.GenerateRTL(feedbackFor(FunctionalFeedback)) },
		func() (string, float64) { return s.GenerateRTL(feedbackFor(SyntaxFeedback)) },
	}
}

// playTurns runs turns [from, to) and records artefact+latency pairs.
func playTurns(s *simSession, from, to int) []string {
	turns := conversationTurns(s)
	var out []string
	for i := from; i < to && i < len(turns); i++ {
		code, lat := turns[i]()
		out = append(out, code, fmt.Sprintf("%.9f", lat))
	}
	return out
}

// TestSessionSnapshotRoundTrip: play a fixed conversation; at every
// turn boundary snapshot a fresh session fast-forwarded to that point,
// restore the snapshot into a brand-new session, play the remaining
// turns, and demand byte-identical artefacts and latencies. This is
// the foundation the crash-resumable pipeline stands on.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	suite := bench.NewSuite()
	const turns = 6
	for _, id := range []string{"gate_and", "cmp_lt_w4", "fsm_shift_ena"} {
		prob := suite.ByID(id)
		if prob == nil {
			t.Fatalf("problem %q missing", id)
		}
		for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
			ref := snapshotSession(t, prob, lang)
			want := playTurns(ref, 0, turns)

			for b := 0; b <= turns; b++ {
				pre := snapshotSession(t, prob, lang)
				playTurns(pre, 0, b)
				snap, err := pre.Snapshot()
				if err != nil {
					t.Fatalf("%s/%s turn %d: snapshot: %v", id, lang, b, err)
				}
				post := snapshotSession(t, prob, lang)
				if err := post.Restore(snap); err != nil {
					t.Fatalf("%s/%s turn %d: restore: %v", id, lang, b, err)
				}
				got := playTurns(post, b, turns)
				wantTail := want[2*b:]
				if len(got) != len(wantTail) {
					t.Fatalf("%s/%s turn %d: tail length %d, want %d", id, lang, b, len(got), len(wantTail))
				}
				for k := range got {
					if got[k] != wantTail[k] {
						t.Fatalf("%s/%s turn %d: output %d diverged after restore", id, lang, b, k)
					}
				}
			}
		}
	}
}

// TestSnapshotRejectsForeignSeed: a snapshot must not restore into a
// session for a different (model, problem, language) conversation.
func TestSnapshotRejectsForeignSeed(t *testing.T) {
	suite := bench.NewSuite()
	a := snapshotSession(t, suite.ByID("gate_and"), edatool.Verilog)
	b := snapshotSession(t, suite.ByID("gate_or"), edatool.Verilog)
	a.GenerateTestbench()
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err == nil {
		t.Error("restore accepted a snapshot from a different conversation")
	}
}

// TestSnapshotRejectsExcessDraws: no run comes near maxDraws draws,
// so a snapshot that claims more is damaged, and replaying its draws
// would spin. Restore rejects it; a snapshot at the bound restores.
func TestSnapshotRejectsExcessDraws(t *testing.T) {
	prob := bench.NewSuite().ByID("gate_and")
	s := snapshotSession(t, prob, edatool.Verilog)
	s.GenerateTestbench()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		draws uint64
		ok    bool
	}{{maxDraws, true}, {maxDraws + 1, false}} {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(snap, &m); err != nil {
			t.Fatal(err)
		}
		m["draws"] = json.RawMessage(fmt.Sprint(tc.draws))
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := snapshotSession(t, prob, edatool.Verilog).Restore(data); (err == nil) != tc.ok {
			t.Errorf("%d draws: Restore error %v, want accepted %v", tc.draws, err, tc.ok)
		}
	}
}

// TestCountedSourceStreamIdentity: wrapping the stdlib source in the
// draw counter must not change the stream — this is what keeps every
// golden-pinned artefact byte-identical — and restoring by discarding
// N draws lands on the same position.
func TestCountedSourceStreamIdentity(t *testing.T) {
	counted := &conversation{Seed: 42}
	rng := counted.rand()
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		if ref.Float64() != rng.Float64() {
			t.Fatalf("rand.Rand stream diverged at draw %d", i)
		}
	}
	if counted.Draws != 500 {
		t.Errorf("500 Float64 draws counted as %d", counted.Draws)
	}

	direct := &conversation{Seed: 7}
	directRng := direct.rand()
	for i := 0; i < 333; i++ {
		directRng.Int63()
	}
	replay := &conversation{Seed: 7, Draws: direct.Draws}
	replayRng := replay.rand()
	for i := 0; i < 100; i++ {
		if directRng.Int63() != replayRng.Int63() {
			t.Fatalf("replayed source diverged at draw %d", i)
		}
	}
	if replay.Draws != direct.Draws {
		t.Errorf("replayed source counted %d draws, original %d", replay.Draws, direct.Draws)
	}
}

// siteIndexForm rewrites a snapshot's mutations into the older form
// that named each defect by its index in the site enumeration
// ({"kind","desc","marker","site"}) instead of storing its edit.
func siteIndexForm(t *testing.T, snap []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(snap, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rtl_muts", "tb_muts"} {
		if m[key] != nil {
			m[key] = siteIndexMuts(t, m[key])
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// siteIndexMuts rewrites a JSON list of mutations into the site-index
// form.
func siteIndexMuts(t *testing.T, list json.RawMessage) json.RawMessage {
	t.Helper()
	var muts []map[string]json.RawMessage
	if err := json.Unmarshal(list, &muts); err != nil {
		t.Fatal(err)
	}
	for i, mut := range muts {
		muts[i] = map[string]json.RawMessage{"kind": mut["kind"], "desc": mut["desc"], "marker": mut["marker"], "site": json.RawMessage(fmt.Sprint(i))}
	}
	out, err := json.Marshal(muts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotRejectsSiteIndexForm: a snapshot in the older site-index
// form carries no edits, so Restore must fail rather than restore its
// defects as edits that change nothing.
func TestSnapshotRejectsSiteIndexForm(t *testing.T) {
	suite := bench.NewSuite()
	for _, lang := range []edatool.Language{edatool.Verilog, edatool.VHDL} {
		pre := snapshotSession(t, suite.ByID("counter_up_w8"), lang)
		pre.GenerateTestbench()
		pre.Started = true
		pre.RTLMuts = append(sampleMutations(rand.New(rand.NewSource(1)), pre.golden(), pre.verilog(), MutSyntax, 2),
			sampleMutations(rand.New(rand.NewSource(2)), pre.golden(), pre.verilog(), MutFunctional, 1)...)
		if len(pre.RTLMuts) != 3 {
			t.Fatalf("%s: sampled %d defects, want 3", lang, len(pre.RTLMuts))
		}
		snap, err := pre.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		post := snapshotSession(t, suite.ByID("counter_up_w8"), lang)
		if err := post.Restore(snap); err != nil || len(post.RTLMuts) != 3 {
			t.Fatalf("%s: current form: restore error %v, %d defects", lang, err, len(post.RTLMuts))
		}
		old := snapshotSession(t, suite.ByID("counter_up_w8"), lang)
		if err := old.Restore(siteIndexForm(t, snap)); err == nil || !strings.Contains(err.Error(), "has no edit") {
			t.Errorf("%s: restore of a site-index snapshot: error %v, want one naming the missing edit", lang, err)
		}
		if old.Started || old.RTLMuts != nil {
			t.Errorf("%s: a rejected snapshot changed the session", lang)
		}
	}
}
