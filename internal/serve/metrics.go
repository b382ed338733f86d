package serve

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm/provider"
)

// stats aggregates server-side observability: per-state step counts
// and wall latency, plus the resume counters. Provider-layer call
// metrics live in the shared provider.Metrics sink.
type stats struct {
	mu         sync.Mutex
	stateCount [core.NumStates]int64
	stateWall  [core.NumStates]time.Duration
	ckpts      int
	resumes    int
	replays    int
	gcExpired  int
}

func (s *stats) observe(st core.State, d time.Duration) {
	if st < 0 || st >= core.NumStates {
		return
	}
	s.mu.Lock()
	s.stateCount[st]++
	s.stateWall[st] += d
	s.mu.Unlock()
}

func (s *stats) checkpointed() { s.mu.Lock(); s.ckpts++; s.mu.Unlock() }
func (s *stats) resumed()      { s.mu.Lock(); s.resumes++; s.mu.Unlock() }
func (s *stats) replayed()     { s.mu.Lock(); s.replays++; s.mu.Unlock() }
func (s *stats) expired(n int) { s.mu.Lock(); s.gcExpired += n; s.mu.Unlock() }

// StateMetric is one pipeline state's aggregate in the metrics
// snapshot.
type StateMetric struct {
	Count     int64   `json:"count"`
	AvgWallMs float64 `json:"avg_wall_ms"`
}

// MetricsSnapshot is the GET /metrics payload: queue backlog, job
// counts by status, per-state step latency, the resume counters, and
// the provider middleware's per-op call metrics (the PR-6 columns).
type MetricsSnapshot struct {
	QueueDepth int            `json:"queue_depth"`
	Jobs       map[string]int `json:"jobs"`

	States map[string]StateMetric `json:"states"`

	CheckpointsWritten int `json:"checkpoints_written"`
	JobsResumed        int `json:"jobs_resumed"`
	StatesReplayed     int `json:"states_replayed"`
	// RecordsExpired counts terminal job records removed by TTL GC.
	RecordsExpired int `json:"records_expired"`

	Provider map[string]provider.OpSnapshot `json:"provider"`
}

// Metrics returns a consistent snapshot of the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		QueueDepth: s.pool.Depth(),
		Jobs:       map[string]int{},
		States:     map[string]StateMetric{},
		Provider:   s.prov.Snapshot(),
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		snap.Jobs[j.rec.Status]++
	}
	s.mu.Unlock()

	s.st.mu.Lock()
	for st := core.State(0); st < core.NumStates; st++ {
		n := s.st.stateCount[st]
		if n == 0 {
			continue
		}
		snap.States[st.String()] = StateMetric{
			Count:     n,
			AvgWallMs: float64(s.st.stateWall[st]) / float64(time.Millisecond) / float64(n),
		}
	}
	snap.CheckpointsWritten = s.st.ckpts
	snap.JobsResumed = s.st.resumes
	snap.StatesReplayed = s.st.replays
	snap.RecordsExpired = s.st.gcExpired
	s.st.mu.Unlock()
	return snap
}
