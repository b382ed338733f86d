package sim

import (
	"testing"

	"repro/internal/hdl"
)

// TestEdgeTable pins the IEEE 1364 edge table over all 16 transitions
// of {0, 1, x, z}: a posedge is 0->1, 0->x, 0->z, x->1 or z->1, a
// negedge is 1->0, 1->x, 1->z, x->0 or z->0, and a value that does not
// change is no edge.
func TestEdgeTable(t *testing.T) {
	for _, tc := range []struct {
		from, to hdl.Logic
		pos, neg bool
	}{
		{hdl.L0, hdl.L0, false, false},
		{hdl.L0, hdl.L1, true, false},
		{hdl.L0, hdl.LX, true, false},
		{hdl.L0, hdl.LZ, true, false},
		{hdl.L1, hdl.L0, false, true},
		{hdl.L1, hdl.L1, false, false},
		{hdl.L1, hdl.LX, false, true},
		{hdl.L1, hdl.LZ, false, true},
		{hdl.LX, hdl.L0, false, true},
		{hdl.LX, hdl.L1, true, false},
		{hdl.LX, hdl.LX, false, false},
		{hdl.LX, hdl.LZ, false, false},
		{hdl.LZ, hdl.L0, false, true},
		{hdl.LZ, hdl.L1, true, false},
		{hdl.LZ, hdl.LX, false, false},
		{hdl.LZ, hdl.LZ, false, false},
	} {
		if got := edgeMatch(tc.from, tc.to, Rising); got != tc.pos {
			t.Errorf("posedge %v->%v = %v, want %v", tc.from, tc.to, got, tc.pos)
		}
		if got := edgeMatch(tc.from, tc.to, Falling); got != tc.neg {
			t.Errorf("negedge %v->%v = %v, want %v", tc.from, tc.to, got, tc.neg)
		}
	}
}
