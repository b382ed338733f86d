package edatool

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/diag"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/vhdl"
)

// DesignCache is the in-process reuse layer spanning both front-ends.
// It stacks two levels, coarsest first:
//
//  1. A simulation-result memo keyed by (language, top, name-sorted
//     unit set, max time), or for a Judge request by (language, top,
//     RTL, judge shell, stimulus digest, max time): a simulation is a
//     pure function of those inputs, so an identical request returns a
//     copy of the finished SimResult — verdict and latency model
//     included — without compiling, elaborating or simulating anything.
//     The memo is bounded by entry count and by retained Log+VCD bytes.
//  2. A per-unit parse memo keyed by (file name, content hash): in the
//     repair loop only the candidate RTL changes, so the testbench,
//     judge shell and stub units skip re-parsing (a self-generated
//     testbench dwarfs the RTL it checks).
//
// The cache is strictly output-neutral: it changes how fast a result
// is produced, never the result. Memoized and incremental paths are
// proven byte-identical to cold runs by the tests in this package, and
// runner/job cache keys do not include it.
//
// Source sets are treated as order-normalized (units are sorted by
// name into the key): the pipeline always passes units with distinct
// names and distinct module/entity names, where order cannot change
// the compiled design.
type DesignCache struct {
	mu sync.Mutex

	vparse map[unitKey]parsedUnit[*verilog.SourceFile]
	hparse map[unitKey]parsedUnit[*vhdl.DesignFile]

	results     map[resultKey]SimResult
	resultBytes int // retained Log+VCD bytes across results

	stats CacheStats
}

// unitKey identifies one parsed unit: its file name and the SHA-256 of
// its text.
type unitKey struct {
	name string
	sum  [sha256.Size]byte
}

// parsedUnit is one memoized parse: the AST and its parse diagnostics.
type parsedUnit[F any] struct {
	file  F
	diags diag.List
}

// resultKey identifies one simulation request.
type resultKey struct {
	design  [sha256.Size]byte
	maxTime uint64
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
// Design counts track simulation-result reuse (skip everything), parse
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

// Cache bounds. Overflow evicts arbitrary entries: eviction is
// invisible in results, only in speed. The result bounds cover a
// whole perfbench table1-cold pass (at most 494 distinct simulations,
// 0.27 MB of output) while keeping a server-wide cache from being
// pinned by a few runs that log up to their output cap.
const (
	maxParses      = 256
	maxResults     = 512
	maxResultBytes = 16 << 20
)

// NewDesignCache returns an empty cache, safe for concurrent use by
// any number of simulations.
func NewDesignCache() *DesignCache {
	return &DesignCache{
		vparse:  make(map[unitKey]parsedUnit[*verilog.SourceFile]),
		hparse:  make(map[unitKey]parsedUnit[*vhdl.DesignFile]),
		results: make(map[resultKey]SimResult),
	}
}

// Stats snapshots the hit/miss counters.
func (c *DesignCache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	return s
}

// designKey hashes the full-design identity: language, top, and the
// name-sorted (name, content) units, each field length-prefixed so no
// two distinct inputs share an encoding. Fields are written without a
// []byte copy (io.Writer implementations must not modify p): on a memo
// hit this hash is the whole cost, and the units include testbenches
// of tens of KB.
func designKey(lang Language, top string, sources []Source) [sha256.Size]byte {
	units := slices.Clone(sources)
	slices.SortFunc(units, func(a, b Source) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(a.Text, b.Text))
	})
	h := sha256.New()
	var buf [8]byte
	field := func(s string) {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s))))
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	h.Write([]byte{byte(lang)})
	field(top)
	for _, u := range units {
		field(u.Name)
		field(u.Text)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// judgeKey is designKey for a Judge request: the shell and the RTL
// by content, the stimulus by its digest.
func judgeKey(lang Language, top string, rtl, shell Source, stim *sim.Stimulus) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	field := func(s string) {
		h.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s))))
		h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
	// A lead byte no designKey starts with keeps the two key spaces
	// apart.
	h.Write([]byte{0xff, byte(lang)})
	field(top)
	field(rtl.Name)
	field(rtl.Text)
	field(shell.Name)
	field(shell.Text)
	h.Write(stim.Digest[:])
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// memo returns a copy of the result memoized under key, or runs run
// and memoizes its result.
func (c *DesignCache) memo(key resultKey, run func() *SimResult) *SimResult {
	if res, ok := c.lookupResult(key); ok {
		return res
	}
	res := run()
	c.storeResult(key, res)
	return res
}

// lookupResult returns a copy of the memoized result for key.
func (c *DesignCache) lookupResult(key resultKey) (*SimResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.results[key]
	if !ok {
		c.stats.DesignMisses++
		return nil, false
	}
	c.stats.DesignHits++
	return &r, true
}

// storeResult memoizes a copy of r under key, evicting arbitrary
// entries until both bounds hold. A result larger than the byte bound
// is not retained; a key another run stored first is left as is.
func (c *DesignCache) storeResult(key resultKey, r *SimResult) {
	size := resultSize(r)
	if size > maxResultBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.results[key]; ok {
		return
	}
	for k, old := range c.results {
		if len(c.results) < maxResults && c.resultBytes+size <= maxResultBytes {
			break
		}
		delete(c.results, k)
		c.resultBytes -= resultSize(&old)
	}
	c.results[key] = *r
	c.resultBytes += size
}

// resultSize is what a memoized result counts against maxResultBytes.
func resultSize(r *SimResult) int {
	return len(r.Log) + len(r.VCD)
}

// parseUnit parses src through memo (one of the cache's per-language
// parse maps): identical file name and content return the retained AST
// and diagnostics. The text is hashed in place, as in designKey.
func parseUnit[F any](c *DesignCache, memo map[unitKey]parsedUnit[F], src Source,
	parse func(file, src string) (F, diag.List)) (F, diag.List) {
	key := unitKey{src.Name, sha256.Sum256(unsafe.Slice(unsafe.StringData(src.Text), len(src.Text)))}
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
	if len(memo) >= maxParses {
		for k := range memo {
			delete(memo, k)
			break
		}
	}
	memo[key] = parsedUnit[F]{file: f, diags: pd}
	c.mu.Unlock()
	return f, pd
}
