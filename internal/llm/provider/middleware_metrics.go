package provider

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two wall-clock latency buckets
// (bucket i covers [2^(i-1), 2^i) microseconds; bucket 0 is < 1µs).
const histBuckets = 32

// Metrics counts calls and failures per op and accumulates wall-clock
// latency histograms plus the modelled API latency. All counters are
// atomics over fixed arrays, so the hot path is lock- and
// allocation-free and safe under concurrent sweep workers.
type Metrics struct {
	clock    Clock
	calls    [numOps]atomic.Int64
	failures [numOps][numClasses]atomic.Int64
	wall     [numOps][histBuckets]atomic.Int64
	modelled [numOps]atomic.Int64 // microseconds of Response.Latency
}

// NewMetrics returns an empty metrics sink.
func NewMetrics(clock Clock) *Metrics { return &Metrics{clock: clock} }

// Wrap implements Middleware.
func (m *Metrics) Wrap(next DoFunc) DoFunc {
	return func(ctx context.Context, req *Request) (Response, error) {
		start := m.clock.Now()
		resp, err := next(ctx, req)
		m.observe(req.Op, err, m.clock.Now().Sub(start), resp.Latency)
		return resp, err
	}
}

func (m *Metrics) observe(op Op, err error, wall time.Duration, modelled float64) {
	if op < 0 || int(op) >= numOps {
		return
	}
	m.calls[op].Add(1)
	if err != nil {
		if c := ClassOf(err); c > 0 && int(c) < numClasses {
			m.failures[op][c].Add(1)
		}
	}
	m.wall[op][bucketOf(wall)].Add(1)
	m.modelled[op].Add(int64(modelled * 1e6))
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// OpSnapshot is the frozen view of one op's counters.
type OpSnapshot struct {
	Calls           int64
	Failures        map[string]int64 // by class name, non-zero only
	ModelledSeconds float64          // summed Response.Latency
	WallBuckets     [histBuckets]int64
}

// P99Wall estimates the 99th-percentile wall latency from the bucket
// upper bounds (0 when no samples).
func (s OpSnapshot) P99Wall() time.Duration {
	var total int64
	for _, n := range s.WallBuckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen int64
	for i, n := range s.WallBuckets {
		seen += n
		if seen >= rank {
			return time.Duration(1<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(1<<histBuckets) * time.Microsecond
}

// Snapshot freezes the counters into a reportable view keyed by op
// name.
func (m *Metrics) Snapshot() map[string]OpSnapshot {
	out := make(map[string]OpSnapshot, numOps)
	for op := 0; op < numOps; op++ {
		s := OpSnapshot{
			Calls:           m.calls[op].Load(),
			ModelledSeconds: float64(m.modelled[op].Load()) / 1e6,
			Failures:        map[string]int64{},
		}
		for c := 1; c < numClasses; c++ {
			if n := m.failures[op][c].Load(); n > 0 {
				s.Failures[Class(c).String()] = n
			}
		}
		for b := 0; b < histBuckets; b++ {
			s.WallBuckets[b] = m.wall[op][b].Load()
		}
		if s.Calls > 0 {
			out[Op(op).String()] = s
		}
	}
	return out
}

// Render formats a snapshot as a compact table for transcripts and the
// CLI -llm-metrics flag.
func (m *Metrics) Render() string {
	snap := m.Snapshot()
	if len(snap) == 0 {
		return "llm metrics: no calls"
	}
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("llm metrics (per op)\n")
	for _, n := range names {
		s := snap[n]
		fmt.Fprintf(&sb, "  %-20s calls=%-6d modelled=%.1fs p99wall=%s",
			n, s.Calls, s.ModelledSeconds, s.P99Wall())
		if len(s.Failures) > 0 {
			classes := make([]string, 0, len(s.Failures))
			for c := range s.Failures {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			sb.WriteString(" failures={")
			for i, c := range classes {
				if i > 0 {
					sb.WriteString(" ")
				}
				fmt.Fprintf(&sb, "%s:%d", c, s.Failures[c])
			}
			sb.WriteString("}")
		}
		sb.WriteString("\n")
	}
	return strings.TrimRight(sb.String(), "\n")
}
