package sim

import "fmt"

// OutBuf collects VCD value-change text as chunks tagged with the
// kernel coordinates (time, delta, phase) at which they were recorded.
// The time tag drives the renderer's #time lines; the chunk boundaries
// are the points at which a capped dump may be cut.
type OutBuf struct {
	chunks []Chunk
}

// Chunk is one run of output produced at a single (time, delta, phase)
// coordinate.
type Chunk struct {
	Time  Time
	Delta int32
	Phase uint8
	Buf   []byte
}

// Appendf records formatted text at the kernel's current coordinates
// and returns the number of bytes written. Consecutive writes at one
// coordinate coalesce into one chunk, so steady-state recording does
// not grow the chunk list per write.
func (o *OutBuf) Appendf(k *Kernel, format string, args ...any) int {
	n := len(o.chunks)
	if n == 0 || o.chunks[n-1].Time != k.now || o.chunks[n-1].Delta != k.delta || o.chunks[n-1].Phase != k.Phase() {
		o.chunks = append(o.chunks, Chunk{Time: k.now, Delta: k.delta, Phase: k.Phase()})
		n++
	}
	c := &o.chunks[n-1]
	before := len(c.Buf)
	c.Buf = fmt.Appendf(c.Buf, format, args...)
	return len(c.Buf) - before
}

// Chunks returns the recorded chunks in recording order.
func (o *OutBuf) Chunks() []Chunk { return o.chunks }
