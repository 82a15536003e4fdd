package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool. It keeps workers-1 long-lived goroutines
// parked on a dispatch channel; each For/ForRange submission hands them
// tickets for one run and the submitting goroutine itself participates, so a
// run uses at most `workers` goroutines and never waits on goroutine spawn
// or WaitGroup teardown — per-call overhead that would dominate when SMO
// issues millions of small SMSV kernels.
//
// A Pool is safe for concurrent use: independent goroutines may submit runs
// at the same time, and a run body may itself submit nested runs (the inner
// submitter participates in its own run, so progress never depends on free
// workers). A nil *Pool is valid and runs everything inline on the caller.
type Pool struct {
	workers int
	tickets chan *poolRun
	quit    chan struct{}
	once    sync.Once
	busy    atomic.Int32 // pooled workers currently executing a run
}

// poolRun is one For/ForRange submission. Participants (pool workers that
// picked up a ticket, plus the submitter) claim chunks from cursor until the
// iteration space is exhausted; the last participant to finish a chunk
// observes done == n and signals fin.
//
// A body panic does not kill the worker or the process: the panicking
// participant records it, marks the run aborted so the other participants
// stop claiming chunks, and the last participant to leave signals fin. The
// submitter then waits for full quiescence and re-raises the panic as a
// *PanicError on its own goroutine, where callers can recover it.
type poolRun struct {
	n     int
	parts int // chunk count for static; 2·parts divisor for guided
	sched Schedule
	body  func(id, lo, hi int)

	cursor  atomic.Int64 // next chunk index (static) or iteration (guided)
	slots   atomic.Int32 // participant IDs handed out so far
	done    atomic.Int64 // iterations completed
	joined  atomic.Int32 // participants that entered the claim loop
	left    atomic.Int32 // participants that exited it
	aborted atomic.Bool  // a body panicked; stop claiming chunks
	panics  panicBox
	fin     chan struct{}
	finOnce sync.Once
}

func (r *poolRun) finish() { r.finOnce.Do(func() { close(r.fin) }) }

// NewPool creates a pool with the given number of workers; workers <= 0
// means NumWorkers(). The pool holds workers-1 goroutines until Close.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = NumWorkers()
	}
	p := &Pool{workers: workers, quit: make(chan struct{})}
	if workers > 1 {
		p.tickets = make(chan *poolRun, 4*workers)
		for i := 0; i < workers-1; i++ {
			go p.worker()
		}
	}
	return p
}

// Workers reports the pool's worker count. A nil pool has one worker (the
// caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the pool's goroutines. It is idempotent and safe to call
// concurrently with submissions: runs submitted after Close still complete,
// executed entirely by their submitters.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
}

func (p *Pool) worker() {
	for {
		// Check quit with priority so Close wins over pending tickets.
		select {
		case <-p.quit:
			return
		default:
		}
		select {
		case <-p.quit:
			return
		case r := <-p.tickets:
			p.busy.Add(1)
			r.participate()
			p.busy.Add(-1)
		}
	}
}

// Busy reports how many pooled workers are currently executing a run — the
// occupancy gauge the telemetry layer exposes. Submitting goroutines that
// participate in their own runs are not counted: they are not pool
// capacity. A nil pool is never busy.
func (p *Pool) Busy() int {
	if p == nil {
		return 0
	}
	return int(p.busy.Load())
}

// ForRange runs body over contiguous sub-ranges [lo, hi) of [0, n) on the
// pool's workers using the given schedule, blocking until every iteration
// completes.
func (p *Pool) ForRange(n int, sched Schedule, body func(lo, hi int)) {
	p.ForRangeID(n, sched, func(_, lo, hi int) { body(lo, hi) })
}

// For runs body(i) for every i in [0, n) on the pool's workers.
func (p *Pool) For(n int, sched Schedule, body func(i int)) {
	p.ForRangeID(n, sched, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangeID is ForRange with a participant ID: id is stable for the
// duration of one participant's involvement in the run and satisfies
// 0 <= id < min(Workers(), n), so bodies can index per-participant scratch.
// Two chunks with the same id never run concurrently.
func (p *Pool) ForRangeID(n int, sched Schedule, body func(id, lo, hi int)) {
	if n <= 0 {
		return
	}
	parts := p.Workers()
	if parts > n {
		parts = n
	}
	if parts == 1 {
		body(0, 0, n)
		return
	}
	r := &poolRun{
		n:     n,
		parts: parts,
		sched: sched,
		body:  body,
		fin:   make(chan struct{}),
	}
	// Offer up to parts-1 tickets without blocking; if the buffer is full
	// or the pool is closed, the submitter simply does a larger share.
	for i := 0; i < parts-1; i++ {
		select {
		case p.tickets <- r:
		default:
			i = parts // buffer full: stop offering
		}
	}
	r.participate()
	<-r.fin
	if r.aborted.Load() {
		// Wait until every joined participant has unwound before re-raising,
		// so no worker is still writing into caller-owned buffers while the
		// caller's recover handler reuses them.
		for r.left.Load() != r.joined.Load() {
			runtime.Gosched()
		}
		r.panics.rethrow()
	}
}

func (r *poolRun) participate() {
	id := int(r.slots.Add(1)) - 1
	if id >= r.parts {
		// Late ticket for a run that already has enough participants.
		return
	}
	r.joined.Add(1)
	defer func() {
		if p := recover(); p != nil {
			r.panics.record(p)
			r.aborted.Store(true)
		}
		// On an aborted run done never reaches n, so the last participant to
		// leave releases the submitter instead. A participant joining after
		// this observes aborted == true and leaves without running the body.
		if left := r.left.Add(1); r.aborted.Load() && left == r.joined.Load() {
			r.finish()
		}
	}()
	total := int64(r.n)
	for !r.aborted.Load() {
		var lo, hi int64
		if r.sched == Guided {
			remaining := total - r.cursor.Load()
			if remaining <= 0 {
				return
			}
			chunk := remaining / int64(2*r.parts)
			if chunk < minGuidedChunk {
				chunk = minGuidedChunk
			}
			lo = r.cursor.Add(chunk) - chunk
			if lo >= total {
				return
			}
			hi = lo + chunk
			if hi > total {
				hi = total
			}
		} else {
			c := r.cursor.Add(1) - 1
			if c >= int64(r.parts) {
				return
			}
			l, h := SplitRange(r.n, r.parts, int(c))
			lo, hi = int64(l), int64(h)
		}
		r.body(id, int(lo), int(hi))
		// Chunks partition [0, n), so done reaches n exactly once.
		if r.done.Add(hi-lo) == total {
			r.finish()
			return
		}
	}
}
