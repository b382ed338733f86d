package edatool

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// DesignCache is the in-process reuse layer spanning both front-ends.
// It stacks two levels, coarsest first:
//
//  1. Whole-design retention keyed by (language, top, sorted
//     name:hash unit set): an identical source set skips parse, check,
//     and elaborate entirely and re-simulates the retained design after
//     a reset to time zero. Entries are checked out exclusively — an
//     acquire removes the design, the post-run release returns it — so
//     concurrent simulations never share one Design.
//  2. A per-unit parse memo keyed by (file name, content hash): in the
//     repair loop only the candidate RTL changes, so the testbench and
//     stub units skip re-parsing (the reference testbenches dwarf the
//     RTL they check).
//
// The cache is strictly key-neutral: it changes how fast a result is
// produced, never the result. Warm, incremental, and reset-and-rerun
// paths are proven byte-identical to cold runs by the differential
// tests in this package, and runner/job cache keys do not include it.
//
// Source sets are treated as order-normalized (the unit hashes are
// sorted into the key): the pipeline always passes units with distinct
// names and distinct module/entity names, where order cannot change
// the compiled design.
type DesignCache struct {
	mu sync.Mutex

	vparse map[string]parsedUnit[*verilog.SourceFile]
	hparse map[string]parsedUnit[*vhdl.DesignFile]

	vdesigns map[string]*vsim.Design
	hdesigns map[string]*vhdlsim.Design

	stats CacheStats
}

// parsedUnit is one memoized parse: the AST and its parse diagnostics.
type parsedUnit[F any] struct {
	file  F
	diags diag.List
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Design counts track whole-design reuse (skip everything), parse
// counts per-unit reuse (skip parsing).
type CacheStats struct {
	DesignHits   int
	DesignMisses int
	ParseHits    int
	ParseMisses  int
}

// Sub returns s - o, for before/after deltas around a run.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		DesignHits:   s.DesignHits - o.DesignHits,
		DesignMisses: s.DesignMisses - o.DesignMisses,
		ParseHits:    s.ParseHits - o.ParseHits,
		ParseMisses:  s.ParseMisses - o.ParseMisses,
	}
}

// maxDesigns bounds each retained-design and parse-memo map; overflow
// evicts an arbitrary entry (eviction is invisible in results — only
// in speed).
const maxDesigns = 256

// makeRoom evicts an arbitrary entry from a full cache map. The caller
// holds the cache's lock.
func makeRoom[V any](m map[string]V) {
	if len(m) < maxDesigns {
		return
	}
	for k := range m {
		delete(m, k)
		return
	}
}

// NewDesignCache returns an empty cache, safe for concurrent use by
// any number of simulations.
func NewDesignCache() *DesignCache {
	return &DesignCache{
		vparse:   make(map[string]parsedUnit[*verilog.SourceFile]),
		hparse:   make(map[string]parsedUnit[*vhdl.DesignFile]),
		vdesigns: make(map[string]*vsim.Design),
		hdesigns: make(map[string]*vhdlsim.Design),
	}
}

// Stats snapshots the hit/miss counters.
func (c *DesignCache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// hashSource is the content hash both cache levels key units on:
// hex-encoded SHA-256 of the exact source text.
func hashSource(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// designKey builds the full-design cache key: language, top, and the
// sorted (name, content hash) set of the source units.
func designKey(lang Language, top string, sources []Source) string {
	parts := make([]string, 0, len(sources))
	for _, src := range sources {
		parts = append(parts, src.Name+":"+hashSource(src.Text))
	}
	sort.Strings(parts)
	return lang.String() + "|" + top + "|" + strings.Join(parts, "|")
}

// acquireDesign checks out the retained design for key from designs
// (one of the cache's per-language maps), removing it so no concurrent
// run can share it.
func acquireDesign[D any](c *DesignCache, designs map[string]D, key string) (D, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := designs[key]
	if ok {
		delete(designs, key)
		c.stats.DesignHits++
	} else {
		c.stats.DesignMisses++
	}
	return d, ok
}

// releaseDesign returns a checked-out (or freshly elaborated) design.
// If another run released the same key first, the incoming design is
// dropped — the map holds one design per key.
func releaseDesign[D any](c *DesignCache, designs map[string]D, key string, d D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := designs[key]; exists {
		return
	}
	makeRoom(designs)
	designs[key] = d
}

// parseUnit parses src through memo (one of the cache's per-language
// parse maps): identical file name and content return the retained AST
// and diagnostics.
func parseUnit[F any](c *DesignCache, memo map[string]parsedUnit[F], src Source,
	parse func(file, src string) (F, diag.List)) (F, diag.List) {
	key := src.Name + "\x00" + hashSource(src.Text)
	c.mu.Lock()
	if e, ok := memo[key]; ok {
		c.stats.ParseHits++
		c.mu.Unlock()
		return e.file, e.diags
	}
	c.stats.ParseMisses++
	c.mu.Unlock()
	f, pd := parse(src.Name, src.Text)
	c.mu.Lock()
	makeRoom(memo)
	memo[key] = parsedUnit[F]{file: f, diags: pd}
	c.mu.Unlock()
	return f, pd
}
