package llm

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// countedSource wraps math/rand's seeded source and counts the draws
// consumed. Both Int63 and Uint64 advance the underlying generator by
// exactly one step, so (seed, draws) fully determines the generator
// state: a restore re-seeds and discards the counted number of draws,
// landing byte-for-byte on the original stream position.
type countedSource struct {
	src rand.Source64
	n   uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countedSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// sessionSnapshot is the serialized form of a simSession. Draws pins
// the RNG position; the mutation lists pin the active defect sets; the
// flags pin the conversation phase.
type sessionSnapshot struct {
	Seed    int64      `json:"seed"`
	Draws   uint64     `json:"draws"`
	Started bool       `json:"started"`
	Cogen   bool       `json:"cogen"`
	TBCode  string     `json:"tb_code,omitempty"`
	RTLMuts []Mutation `json:"rtl_muts,omitempty"`
	TBMuts  []Mutation `json:"tb_muts,omitempty"`
}

// checkMuts rejects a mutation no sampled defect can be: an unknown
// kind, a negative occurrence, or an edit with nothing to find (as
// every mutation of an older snapshot, which stored a site index in
// place of the edit, decodes).
func checkMuts(muts []Mutation) error {
	for i, m := range muts {
		if m.Kind != MutSyntax && m.Kind != MutFunctional {
			return fmt.Errorf("llm: snapshot mutation %d has invalid kind %d", i, m.Kind)
		}
		if m.From == "" || m.N < 0 {
			return fmt.Errorf("llm: snapshot mutation %d (%q) has no edit", i, m.Desc)
		}
	}
	return nil
}

// Snapshot implements Session.
func (s *simSession) Snapshot() ([]byte, error) {
	return json.Marshal(sessionSnapshot{
		Seed:    s.seed,
		Draws:   s.src.n,
		Started: s.started,
		Cogen:   s.cogen,
		TBCode:  s.tbCode,
		RTLMuts: s.rtlMuts,
		TBMuts:  s.tbMuts,
	})
}

// Restore implements Session: it rewinds the session to the
// snapshotted conversation state, including the exact RNG position, so
// every subsequent call produces the same output an uninterrupted
// session would have.
func (s *simSession) Restore(data []byte) error {
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("llm: decoding session snapshot: %w", err)
	}
	if snap.Seed != s.seed {
		return fmt.Errorf("llm: snapshot is for a different task (seed %d, session %d)", snap.Seed, s.seed)
	}
	if err := checkMuts(snap.RTLMuts); err != nil {
		return err
	}
	if err := checkMuts(snap.TBMuts); err != nil {
		return err
	}
	src := newCountedSource(s.seed)
	for i := uint64(0); i < snap.Draws; i++ {
		src.src.Int63()
	}
	src.n = snap.Draws
	s.src = src
	s.rng = rand.New(src)
	s.started = snap.Started
	s.cogen = snap.Cogen
	s.tbCode = snap.TBCode
	s.rtlMuts = snap.RTLMuts
	s.tbMuts = snap.TBMuts
	return nil
}
