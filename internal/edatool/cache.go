package edatool

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/diag"
	"repro/internal/verilog"
	"repro/internal/vhdl"
	"repro/internal/vhdlsim"
	"repro/internal/vsim"
)

// DesignCache is the in-process elaboration-reuse layer spanning both
// front-ends. It stacks three caches, coarsest first:
//
//  1. A full-design cache keyed by (language, top, sorted name:hash
//     unit set): an identical source set skips parse, check, and
//     elaborate entirely and re-simulates the retained design after a
//     reset to time zero. Entries are checked out exclusively — an
//     acquire removes the design, the post-run release returns it — so
//     concurrent simulations never share one Design.
//  2. Per-unit parse caches keyed by (file name, content hash): in the
//     repair loop only the candidate RTL changes, so the testbench and
//     stub units skip re-parsing. Returning the *same* AST pointers is
//     also what feeds cache 3 (ASTs are immutable after parse).
//  3. The front-end elaboration template caches (vsim.ElabCache /
//     vhdlsim.ElabCache), keyed by AST pointer + parameter/generic
//     valuation: unchanged modules of a changed design skip their
//     elaboration walk and re-link against the changed ones.
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

	vparse map[string]*vparseEntry
	hparse map[string]*hparseEntry

	vdesigns map[string]*vsim.Design
	hdesigns map[string]*vhdlsim.Design

	velab  *vsim.ElabCache
	vhelab *vhdlsim.ElabCache

	stats CacheStats
}

type vparseEntry struct {
	sf    *verilog.SourceFile
	diags diag.List
}

type hparseEntry struct {
	df    *vhdl.DesignFile
	diags diag.List
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Design counts track whole-design reuse (skip everything), parse
// counts per-unit reuse (skip parsing; unchanged units also hit the
// elaboration template caches through AST pointer identity).
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

// maxDesigns bounds the retained-design maps per language; overflow
// evicts an arbitrary entry (eviction is invisible in results — only
// in speed).
const maxDesigns = 256

// NewDesignCache returns an empty cache, safe for concurrent use by
// any number of simulations.
func NewDesignCache() *DesignCache {
	return &DesignCache{
		vparse:   make(map[string]*vparseEntry),
		hparse:   make(map[string]*hparseEntry),
		vdesigns: make(map[string]*vsim.Design),
		hdesigns: make(map[string]*vhdlsim.Design),
		velab:    vsim.NewElabCache(),
		vhelab:   vhdlsim.NewElabCache(),
	}
}

// Stats snapshots the hit/miss counters.
func (c *DesignCache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// designKey builds the full-design cache key: language, top, and the
// sorted (name, content hash) set of the source units.
func designKey(lang Language, top string, sources []Source) string {
	parts := make([]string, 0, len(sources))
	for _, src := range sources {
		h := verilog.HashSource(src.Text)
		if lang == VHDL {
			h = vhdl.HashSource(src.Text)
		}
		parts = append(parts, src.Name+":"+h)
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
	if len(designs) >= maxDesigns {
		for k := range designs {
			delete(designs, k)
			break
		}
	}
	designs[key] = d
}

// parseVerilog parses src through the per-unit cache (identical file
// name and content return the retained AST and diagnostics).
func (c *DesignCache) parseVerilog(src Source) (*verilog.SourceFile, diag.List) {
	key := src.Name + "\x00" + verilog.HashSource(src.Text)
	c.mu.Lock()
	if e, ok := c.vparse[key]; ok {
		c.stats.ParseHits++
		c.mu.Unlock()
		return e.sf, e.diags
	}
	c.stats.ParseMisses++
	c.mu.Unlock()
	sf, pd := verilog.Parse(src.Name, src.Text)
	c.mu.Lock()
	if len(c.vparse) >= maxDesigns {
		for k := range c.vparse {
			delete(c.vparse, k)
			break
		}
	}
	c.vparse[key] = &vparseEntry{sf: sf, diags: pd}
	c.mu.Unlock()
	return sf, pd
}

func (c *DesignCache) parseVHDL(src Source) (*vhdl.DesignFile, diag.List) {
	key := src.Name + "\x00" + vhdl.HashSource(src.Text)
	c.mu.Lock()
	if e, ok := c.hparse[key]; ok {
		c.stats.ParseHits++
		c.mu.Unlock()
		return e.df, e.diags
	}
	c.stats.ParseMisses++
	c.mu.Unlock()
	df, pd := vhdl.Parse(src.Name, src.Text)
	c.mu.Lock()
	if len(c.hparse) >= maxDesigns {
		for k := range c.hparse {
			delete(c.hparse, k)
			break
		}
	}
	c.hparse[key] = &hparseEntry{df: df, diags: pd}
	c.mu.Unlock()
	return df, pd
}
