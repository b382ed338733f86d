package runner

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmittedWork(t *testing.T) {
	p := NewPool(4, 16)
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		if err := p.TrySubmit(func() { n.Add(1); wg.Done() }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	p.Close()
	if n.Load() != 16 {
		t.Fatalf("ran %d tasks, want 16", n.Load())
	}
}

// TestPoolQueueFull: with one blocked worker and a full queue,
// TrySubmit must reject immediately with ErrQueueFull — this is the
// signal the job service converts into HTTP 429 backpressure.
func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started // the worker now holds the first task
	if err := p.TrySubmit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	if err := p.TrySubmit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	if err := p.TrySubmit(func() {}); err != ErrQueueFull {
		t.Fatalf("submit beyond depth: %v, want ErrQueueFull", err)
	}
	if d := p.Depth(); d != 2 {
		t.Errorf("Depth = %d, want 2", d)
	}
	close(release)
	p.Close()
}

// TestPoolCloseDrains: Close must run everything already accepted
// before returning, and reject submissions afterwards.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2, 8)
	var n atomic.Int32
	for i := 0; i < 8; i++ {
		if err := p.TrySubmit(func() {
			time.Sleep(5 * time.Millisecond)
			n.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if n.Load() != 8 {
		t.Fatalf("Close returned with %d/8 tasks done", n.Load())
	}
	if err := p.TrySubmit(func() {}); err != ErrPoolClosed {
		t.Fatalf("submit after close: %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestPoolFIFO: with the single worker parked, a staged backlog runs
// in strict submit order once the worker is released.
func TestPoolFIFO(t *testing.T) {
	p := NewPool(1, 16)
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.TrySubmit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	var mu sync.Mutex
	var order []string
	labels := []string{"a", "b", "c", "d", "e"}
	for _, l := range labels {
		if err := p.TrySubmit(func() { mu.Lock(); order = append(order, l); mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	p.Close() // drains everything already accepted
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(labels) {
		t.Fatalf("ran %d tasks, want %d", len(order), len(labels))
	}
	for i, l := range labels {
		if order[i] != l {
			t.Fatalf("order %v, want submit order %v", order, labels)
		}
	}
}

// TestPoolSubmitRacesClose: submissions racing Close each either run
// or are refused — never a send on the closed queue — and Close
// returns only after every accepted task ran.
func TestPoolSubmitRacesClose(t *testing.T) {
	p := NewPool(2, 4)
	var accepted, ran atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch err := p.TrySubmit(func() { ran.Add(1) }); err {
				case nil:
					accepted.Add(1)
				case ErrQueueFull, ErrPoolClosed:
				default:
					t.Errorf("TrySubmit: %v", err)
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
	if ran.Load() != accepted.Load() {
		t.Fatalf("ran %d of %d accepted tasks", ran.Load(), accepted.Load())
	}
}
