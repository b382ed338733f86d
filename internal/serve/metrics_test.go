package serve

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMetricsSubMillisecondStateWall feeds a state whose steps average
// well under a millisecond: /metrics must report the fraction, not a
// whole-millisecond truncation to zero.
func TestMetricsSubMillisecondStateWall(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.st.observe(core.StateZeroShotRTL, 250*time.Microsecond)
	s.st.observe(core.StateZeroShotRTL, 350*time.Microsecond)
	s.st.observe(core.StateVerdict, 2500*time.Microsecond)

	states := s.Metrics().States
	for name, want := range map[string]float64{
		core.StateZeroShotRTL.String(): 0.3,
		core.StateVerdict.String():     2.5,
	} {
		got, ok := states[name]
		if !ok {
			t.Fatalf("state %q missing from snapshot %v", name, states)
		}
		if math.Abs(got.AvgWallMs-want) > 1e-9 {
			t.Errorf("%s avg_wall_ms = %v, want %v", name, got.AvgWallMs, want)
		}
	}
}
