package runner

import (
	"errors"
	"sync"
)

// ErrQueueFull reports that a Pool's bounded queue cannot accept more
// work right now. Callers translate it into backpressure (the job
// service answers HTTP 429 with Retry-After).
var ErrQueueFull = errors.New("runner: queue full")

// ErrPoolClosed reports submission to a pool that is draining.
var ErrPoolClosed = errors.New("runner: pool closed")

// Pool is a long-lived worker pool with a bounded queue, the serving-
// shaped sibling of Execute's per-call pool: Execute fans a known job
// slice out and returns when the batch completes; a Pool accepts work
// incrementally (job submissions over HTTP), rejects beyond its queue
// depth instead of buffering without bound, and drains cleanly on
// shutdown.
//
// Tasks start in strict submit order.
type Pool struct {
	mu sync.Mutex // guards closed against a send on the closed queue
	// queue holds the tasks not yet started; its capacity is the queue
	// depth, beyond which TrySubmit rejects.
	queue  chan func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines consuming a queue of the given
// depth. workers and depth are clamped to at least 1.
func NewPool(workers, depth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pool{queue: make(chan func(), depth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.queue {
				fn()
			}
		}()
	}
	return p
}

// TrySubmit enqueues fn without blocking. It returns ErrQueueFull when
// the queue is at depth and ErrPoolClosed after Close.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.queue <- fn:
		return nil
	default:
		return ErrQueueFull
	}
}

// Depth returns the number of queued (not yet started) tasks.
func (p *Pool) Depth() int { return len(p.queue) }

// Close stops accepting work and waits for queued and in-flight tasks
// to finish. Tasks that should stop early must watch their own
// cancellation signal; Close only guarantees the pool itself drains.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
