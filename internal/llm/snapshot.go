package llm

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// countedSource wraps math/rand's seeded source and counts the draws
// consumed into *n. Both Int63 and Uint64 advance the underlying
// generator by exactly one step, so (seed, draws) fully determines the
// generator state: a restore re-seeds and discards the counted number
// of draws, landing byte-for-byte on the original stream position.
type countedSource struct {
	src rand.Source64
	n   *uint64
}

func (c *countedSource) Int63() int64 {
	*c.n++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	*c.n++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	*c.n = 0
}

// rand returns a generator at the conversation's stream position,
// Draws draws past Seed, that counts its own draws into Draws.
func (c *conversation) rand() *rand.Rand {
	src := rand.NewSource(c.Seed).(rand.Source64)
	for i := uint64(0); i < c.Draws; i++ {
		src.Int63()
	}
	return rand.New(&countedSource{src: src, n: &c.Draws})
}

// maxDraws bounds the draw count a snapshot may claim, so a damaged
// one cannot make Restore spin replaying draws. The largest count a
// suite run reaches is a small fraction of it.
const maxDraws = 1 << 20

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
	return json.Marshal(&s.conversation)
}

// Restore implements Session: it rewinds the session to the
// snapshotted conversation state, including the exact RNG position, so
// every subsequent call produces the same output an uninterrupted
// session would have.
func (s *simSession) Restore(data []byte) error {
	var c conversation
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("llm: decoding session snapshot: %w", err)
	}
	if c.Seed != s.Seed {
		return fmt.Errorf("llm: snapshot is for a different task (seed %d, session %d)", c.Seed, s.Seed)
	}
	if c.Draws > maxDraws {
		return fmt.Errorf("llm: snapshot claims %d draws, more than %d", c.Draws, maxDraws)
	}
	if err := checkMuts(c.RTLMuts); err != nil {
		return err
	}
	if err := checkMuts(c.TBMuts); err != nil {
		return err
	}
	s.conversation = c
	s.rng = s.conversation.rand()
	return nil
}
