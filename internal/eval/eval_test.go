package eval

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRateAndMean(t *testing.T) {
	if !almost(Rate(8, 2), 0.25) {
		t.Error("rate")
	}
	if Rate(0, 0) != 0 {
		t.Error("rate degenerate")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("mean")
	}
	if Mean(nil) != 0 {
		t.Error("mean empty")
	}
}
