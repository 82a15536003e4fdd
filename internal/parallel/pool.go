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

// Operands is what a Kernel works on. The run record carries it by value,
// so dispatching a kernel allocates nothing: a closure over the same values
// is one heap object per dispatch, and SMO dispatches a kernel twice per
// iteration.
type Operands struct {
	M         any       // the matrix; the kernel asserts its concrete type
	Dst, Dst2 []float64 // products: Dst = M·x, Dst2 = M·x2
	X, X2     []float64 // dense images of the sparse operands x and x2
}

// Kernel is a loop body in closure-free form: a package-level function that
// computes iterations [lo, hi) on the operands it is handed.
type Kernel func(o Operands, lo, hi int)

// poolRun is one submission. Participants (pool workers that picked up a
// ticket, plus the submitter) claim chunks from cursor until the iteration
// space is exhausted; the last participant to finish a chunk observes
// done == n and signals fin.
//
// A body panic does not kill the worker or the process: the panicking
// participant records it, marks the run aborted so the other participants
// stop claiming chunks, and the last participant to leave signals fin. The
// submitter then waits for full quiescence and re-raises the panic as a
// *PanicError on its own goroutine, where callers can recover it.
//
// Records are recycled through runPool, so a loop on the pool allocates
// nothing. The hazard is the late ticket: a worker can dequeue a ticket for
// a run that finished long ago, and must find the record still describing
// that run (slots > parts sends it away) rather than someone else's. refs
// counts the submitter plus every ticket offered; each gives its reference
// up when it is done with the record, and only the last one recycles it. A
// ticket still queued when the pool is closed is never consumed, so its
// record is never recycled — it is garbage with the channel.
type poolRun struct {
	n     int
	parts int // chunk count for static; 2·parts divisor for guided
	sched Schedule

	// The body, in the form the caller gave it: exactly one is set.
	ranged func(lo, hi int)
	each   func(i int)
	kernel Kernel
	ops    Operands

	cursor   atomic.Int64 // next chunk index (static) or iteration (guided)
	slots    atomic.Int32 // participants that asked to join so far
	done     atomic.Int64 // iterations completed
	joined   atomic.Int32 // participants that entered the claim loop
	left     atomic.Int32 // participants that exited it
	aborted  atomic.Bool  // a body panicked; stop claiming chunks
	panics   panicBox
	finished atomic.Bool   // fin has been signalled for this use
	fin      chan struct{} // one token per use, made with the record
	refs     atomic.Int32
}

// The channel holds the one token finish sends per use, so the send never
// blocks and the submitter's receive empties it for the next use.
var runPool = sync.Pool{New: func() any { return &poolRun{fin: make(chan struct{}, 1)} }}

// newRun takes a record for n iterations in parts chunks. Nobody else holds
// the record, so plain resets are enough; the caller sets the body.
func newRun(n, parts int, sched Schedule) *poolRun {
	r := runPool.Get().(*poolRun)
	r.n, r.parts, r.sched = n, parts, sched
	r.cursor.Store(0)
	r.slots.Store(0)
	r.done.Store(0)
	r.joined.Store(0)
	r.left.Store(0)
	r.aborted.Store(false)
	r.panics.reset()
	r.finished.Store(false)
	// The submitter and a ticket for each other part; run returns the
	// references of tickets it could not offer.
	r.refs.Store(int32(parts))
	return r
}

// release gives up k references; the last holder recycles the record,
// dropping the body so an idle record pins none of the caller's memory.
func (r *poolRun) release(k int) {
	if r.refs.Add(int32(-k)) != 0 {
		return
	}
	r.ranged, r.each, r.kernel, r.ops = nil, nil, nil, Operands{}
	runPool.Put(r)
}

func (r *poolRun) finish() {
	if r.finished.CompareAndSwap(false, true) {
		r.fin <- struct{}{}
	}
}

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
			r.release(1)
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

// split reports how many chunks a run over n iterations uses: 0 when there
// is nothing to do, 1 when the caller should run the body inline.
func (p *Pool) split(n int) int {
	if n <= 0 {
		return 0
	}
	return min(p.Workers(), n)
}

// ForRange runs body over contiguous sub-ranges [lo, hi) of [0, n) on the
// pool's workers using the given schedule, blocking until every iteration
// completes.
func (p *Pool) ForRange(n int, sched Schedule, body func(lo, hi int)) {
	parts := p.split(n)
	if parts <= 1 {
		if parts == 1 {
			body(0, n)
		}
		return
	}
	r := newRun(n, parts, sched)
	r.ranged = body
	p.run(r)
}

// For runs body(i) for every i in [0, n) on the pool's workers.
func (p *Pool) For(n int, sched Schedule, body func(i int)) {
	parts := p.split(n)
	if parts <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	r := newRun(n, parts, sched)
	r.each = body
	p.run(r)
}

// ForKernel is ForRange for a body in Kernel form.
func (p *Pool) ForKernel(n int, sched Schedule, k Kernel, o Operands) {
	parts := p.split(n)
	if parts <= 1 {
		if parts == 1 {
			k(o, 0, n)
		}
		return
	}
	r := newRun(n, parts, sched)
	r.kernel, r.ops = k, o
	p.run(r)
}

// run executes a record made by newRun and gives up the submitter's
// reference to it.
func (p *Pool) run(r *poolRun) {
	// Offer up to parts-1 tickets without blocking; if the buffer is full
	// or the pool is closed, the submitter simply does a larger share.
	unoffered := r.parts - 1
	for unoffered > 0 {
		select {
		case p.tickets <- r:
			unoffered--
			continue
		default:
		}
		break
	}
	r.participate()
	<-r.fin
	if !r.aborted.Load() {
		r.release(1 + unoffered)
		return
	}
	// Wait until every joined participant has unwound before re-raising,
	// so no worker is still writing into caller-owned buffers while the
	// caller's recover handler reuses them.
	for r.left.Load() != r.joined.Load() {
		runtime.Gosched()
	}
	val, set := r.panics.take()
	r.release(1 + unoffered)
	if set {
		panic(&PanicError{Value: val})
	}
}

func (r *poolRun) participate() {
	if int(r.slots.Add(1)) > r.parts {
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
		r.call(int(lo), int(hi))
		// Chunks partition [0, n), so done reaches n exactly once.
		if r.done.Add(hi-lo) == total {
			r.finish()
			return
		}
	}
}

// call runs the body over one chunk, in whichever form the run carries.
func (r *poolRun) call(lo, hi int) {
	switch {
	case r.kernel != nil:
		r.kernel(r.ops, lo, hi)
	case r.ranged != nil:
		r.ranged(lo, hi)
	default:
		for i := lo; i < hi; i++ {
			r.each(i)
		}
	}
}
