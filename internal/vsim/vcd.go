package vsim

import (
	"fmt"
	"strings"

	"repro/internal/hdl"
	"repro/internal/sim"
)

// vcdDump records value changes in IEEE 1364 VCD format once the
// testbench executes $dumpvars. The header and identifier table are
// built exactly once, at the delta boundary following the $dumpvars
// call, where the whole design can be sampled for the initial dump.
// Subsequent changes are recorded into time-tagged chunks and rendered
// under the header after the run.
type vcdDump struct {
	enabled   bool
	ids       map[*Signal]string
	order     []*Signal // header order, for the deterministic initial dump
	header    strings.Builder
	startTime sim.Time
	cap       int // cap on recorded change bytes
	changes   sim.OutBuf
	n         int // change bytes recorded so far
}

// vcdID generates the printable short identifier for the n-th signal.
func vcdID(n int) string {
	const first, last = 33, 126 // '!' .. '~'
	var sb strings.Builder
	for {
		sb.WriteByte(byte(first + n%(last-first+1)))
		n /= (last - first + 1)
		if n == 0 {
			return sb.String()
		}
		n--
	}
}

// enable emits the header covering every signal of the design and
// starts change recording. It runs at a delta boundary.
func (v *vcdDump) enable(d *Design, now sim.Time) {
	if v.enabled {
		return
	}
	v.enabled = true
	v.ids = map[*Signal]string{}
	if v.cap == 0 {
		v.cap = 1 << 20
	}
	v.startTime = now
	v.header.WriteString("$timescale 1ns $end\n")
	// Group signals by instance path for $scope sections.
	byScope := map[string][]*Signal{}
	var scopes []string
	d.arena.Each(func(sig *Signal) {
		if sig.IsMem {
			return // memories are not dumped
		}
		scope := sig.Name[:len(sig.Name)-len(sig.Local)-1]
		if _, ok := byScope[scope]; !ok {
			scopes = append(scopes, scope)
		}
		byScope[scope] = append(byScope[scope], sig)
	})
	n := 0
	for _, scope := range scopes {
		fmt.Fprintf(&v.header, "$scope module %s $end\n", strings.ReplaceAll(scope, ".", "_"))
		for _, sig := range byScope[scope] {
			id := vcdID(n)
			n++
			v.ids[sig] = id
			v.order = append(v.order, sig)
			fmt.Fprintf(&v.header, "$var wire %d %s %s $end\n", sig.Width, id, sig.Local)
		}
		v.header.WriteString("$upscope $end\n")
	}
	v.header.WriteString("$enddefinitions $end\n")
	fmt.Fprintf(&v.header, "#%d\n$dumpvars\n", now)
	// Header order, not map order: VCD output must be byte-for-byte
	// reproducible across runs (see TestSimulateDeterministicVCD).
	for _, sig := range v.order {
		writeVCDValue(&v.header, sig.Val, v.ids[sig])
	}
	v.header.WriteString("$end\n")
}

// vcdChange records one signal transition, up to the dump's cap.
func (s *Simulator) vcdChange(sig *Signal) {
	v := &s.vcd
	if !v.enabled {
		return
	}
	id, ok := v.ids[sig]
	if !ok {
		return
	}
	if v.n > v.cap {
		return
	}
	if sig.Width == 1 {
		v.n += v.changes.Appendf(s.Kernel, "%c%s\n", sig.Val.Bit(0).Rune(), id)
	} else {
		v.n += v.changes.Appendf(s.Kernel, "b%s %s\n", sig.Val.BinString(), id)
	}
}

// render writes the recorded changes under the header, emitting a
// #time line whenever the stream crosses a time step. The body is
// bounded by the cap, cut at a chunk boundary.
func (v *vcdDump) render() string {
	var sb strings.Builder
	sb.WriteString(v.header.String())
	limit := sb.Len() + v.cap
	last := v.startTime
	for _, c := range v.changes.Chunks() {
		if sb.Len() > limit {
			break
		}
		if c.Time != last {
			fmt.Fprintf(&sb, "#%d\n", c.Time)
			last = c.Time
		}
		sb.Write(c.Buf)
	}
	return sb.String()
}

func writeVCDValue(sb *strings.Builder, val hdl.Vector, id string) {
	if val.Width() == 1 {
		fmt.Fprintf(sb, "%c%s\n", val.Bit(0).Rune(), id)
		return
	}
	fmt.Fprintf(sb, "b%s %s\n", val.BinString(), id)
}
