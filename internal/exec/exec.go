// Package exec bundles a persistent worker pool, a scheduling policy, and
// optional instrumentation counters into one execution context — the *Exec —
// that every compute kernel in this repository takes in place of a bare
// (workers, sched) pair. The context carries three things:
//
//   - a parallel.Pool of long-lived workers, so per-kernel goroutine spawn
//     and WaitGroup teardown (which dominate SMO's millions of small SMSV
//     products) are paid once per Exec instead of once per call;
//   - the schedule (Static or Guided) the kernels partition work with;
//   - optional Stats counters (kernel invocations, stored elements touched,
//     cumulative per-kind time) that are atomic, allocation-free, and
//     nil-safe so the default path costs nothing.
//
// A nil *Exec is valid everywhere and means serial execution with no
// instrumentation; exec.Default() is the shared all-cores pooled context the
// config layers fall back to. An Exec is safe for concurrent use by multiple
// goroutines, including nested submissions from inside a kernel body.
package exec

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/parallel"
)

// Sched selects how loops are partitioned among workers. It aliases
// parallel.Schedule so kernel callers only need to import exec.
type Sched = parallel.Schedule

// Scheduling policies, re-exported from package parallel.
const (
	// Static divides the iteration space into one contiguous chunk per
	// worker: lowest overhead, balanced only for uniform iteration cost.
	Static = parallel.Static
	// Guided hands out shrinking chunks from a shared counter, like OpenMP
	// schedule(guided), balancing irregular row lengths.
	Guided = parallel.Guided
)

// Exec is an execution context for compute kernels. Construct one with New,
// Serial, or Default; the zero value and nil both mean serial execution.
type Exec struct {
	pool    *parallel.Pool
	workers int
	sched   Sched
	stats   *Stats
	owned   bool // pool created by New; Close stops it
}

// New creates a pooled execution context with the given worker count
// (workers <= 0 means all cores, i.e. parallel.NumWorkers()) and schedule.
// Call Close when done to release the pool's goroutines.
func New(workers int, sched Sched) *Exec {
	if workers <= 0 {
		workers = parallel.NumWorkers()
	}
	e := &Exec{workers: workers, sched: sched}
	if workers > 1 {
		e.pool = parallel.NewPool(workers)
		e.owned = true
	}
	return e
}

// Serial returns a context that runs every kernel inline on the calling
// goroutine. Equivalent to passing a nil *Exec, but usable where a non-nil
// value reads better.
func Serial() *Exec { return &Exec{workers: 1} }

var (
	defaultOnce sync.Once
	defaultExec *Exec
)

// Default returns the shared all-cores static-schedule context. It is
// created on first use, never closed, and safe for concurrent use; config
// layers map a nil Exec to it so the zero-value configuration keeps the old
// "workers 0 = all cores" behaviour.
func Default() *Exec {
	defaultOnce.Do(func() { defaultExec = New(0, Static) })
	return defaultExec
}

// Close releases the pool owned by this context. Contexts derived with
// WithSched/WithStats share the parent's pool and their Close is a no-op,
// as is Close on nil, Serial, or Default contexts.
func (e *Exec) Close() {
	if e != nil && e.owned {
		e.pool.Close()
	}
}

// Workers reports the worker count; 1 for a nil context.
func (e *Exec) Workers() int {
	if e == nil || e.workers < 1 {
		return 1
	}
	return e.workers
}

// Sched reports the scheduling policy; Static for a nil context.
func (e *Exec) Sched() Sched {
	if e == nil {
		return Static
	}
	return e.sched
}

// WithSched returns a context identical to e but using schedule s. The
// result shares e's pool and stats; e may be nil.
func (e *Exec) WithSched(s Sched) *Exec {
	if e == nil {
		return &Exec{workers: 1, sched: s}
	}
	d := *e
	d.sched = s
	d.owned = false
	return &d
}

// WithStats returns a context identical to e but recording into st (nil
// detaches instrumentation). The result shares e's pool; e may be nil.
func (e *Exec) WithStats(st *Stats) *Exec {
	if e == nil {
		return &Exec{workers: 1, stats: st}
	}
	d := *e
	d.stats = st
	d.owned = false
	return &d
}

// Tracking reports whether instrumentation counters are attached. Kernels
// use it to skip work (like counting touched elements) that only feeds the
// counters.
func (e *Exec) Tracking() bool { return e != nil && e.stats != nil }

// Occupancy reports the pooled workers currently executing kernels and the
// total worker count — the pool-occupancy gauge /metrics exposes. Serial
// contexts report 0 busy.
func (e *Exec) Occupancy() (busy, workers int) {
	if e == nil {
		return 0, 1
	}
	return e.pool.Busy(), e.Workers()
}

// ForRange runs body over contiguous sub-ranges [lo, hi) of [0, n) using
// the context's workers and schedule, blocking until all iterations
// complete. Serial contexts run body(0, n) inline.
func (e *Exec) ForRange(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	// Chaos hook: one atomic nil-check when no fault registry is enabled.
	fault.Disrupt("exec.dispatch")
	if e == nil || e.workers == 1 || n == 1 {
		body(0, n)
		return
	}
	e.pool.ForRange(n, e.sched, body)
}

// Parts returns the partition count kernels should size per-worker scratch
// for when processing n items: min(Workers, n), at least 1. Pair it with
// ForParts and parallel.SplitRange.
func (e *Exec) Parts(n int) int {
	p := e.Workers()
	if n >= 1 && p > n {
		p = n
	}
	return p
}

// serialGrain is the iteration count below which a loop doing O(1) work per
// iteration runs inline on the caller instead of on the pool. Waking a
// parked worker costs more than such a loop takes: BenchmarkSMOIteration's
// fused update + select over the 375 to 2265 rows of the Table V clones is
// 5–80 % slower at 2 and 4 workers than inline, a sweep over n shows a tie
// from 2048 to 8192 elements and the pool ahead from 32768 (EXPERIMENTS.md).
// Results cannot depend on it: partial results merge in serial-scan order.
const serialGrain = 4096

// ElementParts is Parts for a loop doing O(1) work per element: one part
// below serialGrain elements.
func (e *Exec) ElementParts(n int) int {
	if n < serialGrain {
		return 1
	}
	return e.Parts(n)
}

// ForElements is ForRange for a loop doing O(1) work per iteration: inline
// below serialGrain iterations.
func (e *Exec) ForElements(n int, body func(lo, hi int)) {
	if n < serialGrain {
		e = nil
	}
	e.ForRange(n, body)
}

// ForParts runs body(w) exactly once for each w in [0, parts), in parallel
// unless the context is serial. It is the building block for kernels that
// accumulate into per-partition scratch (COO fix-ups, CSC partial outputs,
// fused SMO updates): distinct w values may run concurrently, so body must
// only write state indexed by w.
func (e *Exec) ForParts(parts int, body func(w int)) {
	if parts <= 0 {
		return
	}
	fault.Disrupt("exec.dispatch")
	if e == nil || e.workers == 1 || parts == 1 {
		for w := 0; w < parts; w++ {
			body(w)
		}
		return
	}
	// Static: each part is one chunk, so parts map 1:1 onto claims.
	e.pool.For(parts, parallel.Static, body)
}

// Operands and Kernel are the closure-free body form, re-exported from
// package parallel: a kernel dispatched through ForKernel allocates nothing,
// where a closure over its operands is one heap object per call.
type (
	Operands = parallel.Operands
	Kernel   = parallel.Kernel
)

// ForKernel is ForRange for a body in Kernel form: k(o, lo, hi) over
// contiguous sub-ranges of [0, n) under the context's schedule.
func (e *Exec) ForKernel(n int, k Kernel, o Operands) { e.forKernel(n, e.Sched(), k, o) }

// ForKernelStatic is ForKernel under the Static schedule whatever the
// context's, for a kernel whose chunks must be the SplitRange partition of
// [0, n) into Parts(n) — what ForParts plus SplitRange give a closure.
func (e *Exec) ForKernelStatic(n int, k Kernel, o Operands) { e.forKernel(n, Static, k, o) }

func (e *Exec) forKernel(n int, sched Sched, k Kernel, o Operands) {
	if n <= 0 {
		return
	}
	fault.Disrupt("exec.dispatch")
	if e == nil || e.workers == 1 || n == 1 {
		k(o, 0, n)
		return
	}
	e.pool.ForKernel(n, sched, k, o)
}

// ArgExtreme holds the result of an argmin/argmax reduction.
type ArgExtreme struct {
	Index int     // index of the extreme element; -1 if no element qualified
	Value float64 // the extreme value; undefined when Index == -1
}

// ArgMin returns the index and value of the minimum of value(i) over the
// i in [0, n) for which ok(i) is true (ok nil means all qualify). Ties
// break toward the smallest index, matching a serial scan.
func (e *Exec) ArgMin(n int, ok func(i int) bool, value func(i int) float64) ArgExtreme {
	return e.argExtreme(n, ok, value, true)
}

// ArgMax is the maximizing counterpart of ArgMin.
func (e *Exec) ArgMax(n int, ok func(i int) bool, value func(i int) float64) ArgExtreme {
	return e.argExtreme(n, ok, value, false)
}

func (e *Exec) argExtreme(n int, ok func(i int) bool, value func(i int) float64, wantMin bool) ArgExtreme {
	if n <= 0 {
		return ArgExtreme{Index: -1}
	}
	scan := func(lo, hi int) ArgExtreme {
		best := ArgExtreme{Index: -1}
		for i := lo; i < hi; i++ {
			if ok != nil && !ok(i) {
				continue
			}
			v := value(i)
			if best.Index == -1 || (wantMin && v < best.Value) || (!wantMin && v > best.Value) {
				best = ArgExtreme{Index: i, Value: v}
			}
		}
		return best
	}
	p := e.ElementParts(n)
	if p == 1 {
		return scan(0, n)
	}
	partial := make([]ArgExtreme, p)
	e.ForParts(p, func(w int) {
		lo, hi := parallel.SplitRange(n, p, w)
		partial[w] = scan(lo, hi)
	})
	// Partials are merged in ascending index order and replaced only on a
	// strictly better value, keeping the smallest-index tie-break.
	best := ArgExtreme{Index: -1}
	for _, cand := range partial {
		if cand.Index == -1 {
			continue
		}
		if best.Index == -1 ||
			(wantMin && cand.Value < best.Value) ||
			(!wantMin && cand.Value > best.Value) {
			best = cand
		}
	}
	return best
}
