package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestStimulusDigestDistinguishes(t *testing.T) {
	base := NewStimulus([]string{"a", "b"}, []string{"y"}, false, 2, []uint64{1, 2, 3, 4}, []uint64{5, 6})
	same := NewStimulus([]string{"a", "b"}, []string{"y"}, false, 2, []uint64{1, 2, 3, 4}, []uint64{5, 6})
	if base.Digest != same.Digest {
		t.Fatal("equal stimuli digest differently")
	}
	for name, st := range map[string]*Stimulus{
		"output value": NewStimulus([]string{"a", "b"}, []string{"y"}, false, 2, []uint64{1, 2, 3, 4}, []uint64{5, 7}),
		"input value":  NewStimulus([]string{"a", "b"}, []string{"y"}, false, 2, []uint64{1, 2, 3, 5}, []uint64{5, 6}),
		"sequential":   NewStimulus([]string{"a", "b"}, []string{"y"}, true, 2, []uint64{1, 2, 3, 4}, []uint64{5, 6}),
		"port names":   NewStimulus([]string{"ab", ""}, []string{"y"}, false, 2, []uint64{1, 2, 3, 4}, []uint64{5, 6}),
		"port split":   NewStimulus([]string{"a"}, []string{"b", "y"}, false, 2, []uint64{1, 2}, []uint64{3, 4, 5, 6}),
	} {
		if st.Digest == base.Digest {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

// traceShell records the harness's calls with the kernel time.
type traceShell struct {
	k    *Kernel
	want map[string]bool // "output/value" pairs Holds accepts
	log  []string
}

func (s *traceShell) rec(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("%d:", s.k.Now())+fmt.Sprintf(format, args...))
}

func (s *traceShell) Begin()                { s.rec("begin") }
func (s *traceShell) Drive(i int, v uint64) { s.rec("drive%d=%d", i, v) }
func (s *traceShell) Holds(i int, v uint64) bool {
	s.rec("check%d=%d", i, v)
	return s.want[fmt.Sprintf("%d/%d", i, v)]
}
func (s *traceShell) Mismatch()             { s.rec("mismatch") }
func (s *traceShell) AwaitClock(p *Process) { s.rec("await") }
func (s *traceShell) Rose() bool            { return true }
func (s *traceShell) End(failures int)      { s.rec("end%d", failures) }

// TestStimulusHarnessTimeline runs a combinational stimulus against a
// recording shell: per vector, drive every input, settle one time
// unit, check every output; a failed check runs the mismatch branch
// and counts toward End.
func TestStimulusHarnessTimeline(t *testing.T) {
	rt := NewRuntime(Options{}, "tb", "budget")
	sh := &traceShell{k: rt.Kernel, want: map[string]bool{"0/7": true, "0/9": true}}
	st := NewStimulus([]string{"a", "b"}, []string{"y"}, false, 3, []uint64{1, 2, 3, 4, 5, 6}, []uint64{7, 8, 9})
	rt.StartStimulus(st, sh)
	out := rt.Execute()
	want := "0:begin 0:drive0=1 0:drive1=2 1:check0=7 1:drive0=3 1:drive1=4 2:check0=8 2:mismatch " +
		"2:drive0=5 2:drive1=6 3:check0=9 3:end1"
	if got := strings.Join(sh.log, " "); got != want {
		t.Errorf("harness calls:\n got  %s\n want %s", got, want)
	}
	if out.EndTime != 3 || out.TimedOut || out.Fault != "" {
		t.Errorf("outcome %+v", out)
	}
}
