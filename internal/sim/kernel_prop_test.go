package sim

import (
	"testing"
	"testing/quick"
)

// TestQuickScheduleOrderingProperty: events always run in nondecreasing
// time order, and FIFO within a timestamp.
func TestQuickScheduleOrderingProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 || len(delays) > 40 {
			return true
		}
		k := NewKernel()
		type stamp struct {
			at  Time
			seq int
		}
		var got []stamp
		for i, d := range delays {
			i, d := i, Time(d)
			k.Schedule(d, func() {
				got = append(got, stamp{at: k.Now(), seq: i})
			})
		}
		if k.Run() != StopIdle {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			// FIFO within a time slot: sequence numbers increase.
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return len(got) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickProcessDelaysAccumulate: a process's delays always sum.
func TestQuickProcessDelaysAccumulate(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) > 20 {
			steps = steps[:20]
		}
		k := NewKernel()
		var want Time
		for _, s := range steps {
			want += Time(s)
		}
		var got Time
		pc := 0
		spawn(k, "p", func(p *Process) {
			if pc < len(steps) {
				d := Time(steps[pc])
				pc++
				p.Delay(d)
				return
			}
			got = k.Now()
			p.Terminate()
		})
		k.Run()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStopReasonStrings(t *testing.T) {
	for r, want := range map[StopReason]string{
		StopIdle: "idle", StopFinish: "finish", StopTimeout: "timeout",
		StopDeltas: "delta-limit", StopEvents: "event-limit",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestSetFaultKeepsFirst(t *testing.T) {
	k := NewKernel()
	k.SetFault("first")
	k.SetFault("second")
	if k.Fault() != "first" {
		t.Errorf("fault = %q", k.Fault())
	}
	if !k.Finished() {
		t.Error("fault must stop the kernel")
	}
}
