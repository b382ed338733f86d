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

// mutSnapshot serializes one active Mutation. The closure is re-bound
// on restore from the deterministic site enumeration of the base
// source the defect was sampled from.
type mutSnapshot struct {
	Kind   MutKind `json:"kind"`
	Desc   string  `json:"desc"`
	Marker string  `json:"marker"`
	Site   int     `json:"site"`
}

// sessionSnapshot is the serialized form of a simSession. Draws pins
// the RNG position; the mutation lists pin the active defect sets; the
// flags pin the conversation phase.
type sessionSnapshot struct {
	Seed    int64         `json:"seed"`
	Draws   uint64        `json:"draws"`
	Started bool          `json:"started"`
	Cogen   bool          `json:"cogen"`
	TBCode  string        `json:"tb_code,omitempty"`
	RTLMuts []mutSnapshot `json:"rtl_muts,omitempty"`
	TBMuts  []mutSnapshot `json:"tb_muts,omitempty"`
}

func snapshotMuts(muts []Mutation) []mutSnapshot {
	if len(muts) == 0 {
		return nil
	}
	out := make([]mutSnapshot, len(muts))
	for i, m := range muts {
		out[i] = mutSnapshot{Kind: m.Kind, Desc: m.Desc, Marker: m.Marker, Site: m.site}
	}
	return out
}

// enumerateSites exposes the deterministic site enumeration snapshots
// index into.
func enumerateSites(src string, verilog bool, kind MutKind) []mutantSite {
	if kind == MutSyntax {
		return syntaxSites(src, verilog)
	}
	return funcSites(src, verilog)
}

// restoreMuts re-binds serialized mutations against the base source
// they were sampled from, validating that the referenced sites still
// describe the same defects.
func restoreMuts(snaps []mutSnapshot, baseSrc string, verilog bool) ([]Mutation, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	// The enumerations are cheap and per-kind, so rebuild lazily.
	var byKind [2][]mutantSite
	have := [2]bool{}
	out := make([]Mutation, len(snaps))
	for i, s := range snaps {
		k := int(s.Kind)
		if k < 0 || k > 1 {
			return nil, fmt.Errorf("llm: snapshot mutation %d has invalid kind %d", i, s.Kind)
		}
		if !have[k] {
			byKind[k] = enumerateSites(baseSrc, verilog, s.Kind)
			have[k] = true
		}
		sites := byKind[k]
		if s.Site < 0 || s.Site >= len(sites) {
			return nil, fmt.Errorf("llm: snapshot mutation %d site %d out of range (%d sites)", i, s.Site, len(sites))
		}
		site := sites[s.Site]
		if site.desc != s.Desc {
			return nil, fmt.Errorf("llm: snapshot mutation %d site %d is %q, snapshot says %q", i, s.Site, site.desc, s.Desc)
		}
		out[i] = Mutation{Kind: s.Kind, Desc: s.Desc, Marker: s.Marker, Apply: site.apply, site: s.Site}
	}
	return out, nil
}

// Snapshot implements Session.
func (s *simSession) Snapshot() ([]byte, error) {
	return json.Marshal(sessionSnapshot{
		Seed:    s.seed,
		Draws:   s.src.n,
		Started: s.started,
		Cogen:   s.cogen,
		TBCode:  s.tbCode,
		RTLMuts: snapshotMuts(s.rtlMuts),
		TBMuts:  snapshotMuts(s.tbMuts),
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
	rtlMuts, err := restoreMuts(snap.RTLMuts, s.golden(), s.verilog())
	if err != nil {
		return err
	}
	tbMuts, err := restoreMuts(snap.TBMuts, snap.TBCode, s.verilog())
	if err != nil {
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
	s.rtlMuts = rtlMuts
	s.tbMuts = tbMuts
	return nil
}
