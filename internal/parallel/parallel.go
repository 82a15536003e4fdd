// Package parallel provides the shared-memory parallel building block used
// by every compute kernel in this repository: a persistent worker pool whose
// parallel-for runs under static or guided scheduling. Reductions over it
// live in package exec.
//
// The package deliberately mirrors the OpenMP constructs the paper's C
// kernels were written with (parallel for, schedule(static|guided),
// reduction(min/max)) so that the Go kernels expose the same load-balancing
// behaviour the paper measures: padded formats (ELL, DIA) waste work
// uniformly, irregular row lengths unbalance static row partitions, and
// nnz-parallel formats (COO) stay balanced regardless of row skew.
package parallel

import "runtime"

// Schedule selects how a Pool partitions the iteration space among workers.
type Schedule int

const (
	// Static divides [0,n) into one contiguous chunk per worker.
	// Lowest overhead; load-balanced only if iterations cost the same.
	Static Schedule = iota
	// Guided hands out chunks of shrinking size from a shared counter,
	// like OpenMP schedule(guided). Balances irregular iteration costs at
	// the price of an atomic fetch per chunk.
	Guided
)

// String returns the schedule name.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Guided:
		return "guided"
	default:
		return "unknown"
	}
}

// NumWorkers returns the default worker count: GOMAXPROCS at the time of
// the call, so runtime changes to it are honored.
func NumWorkers() int { return runtime.GOMAXPROCS(0) }

// minGuidedChunk is the smallest chunk Guided scheduling will hand out.
// Chosen so the atomic counter is not contended for fine-grained loops.
const minGuidedChunk = 16

// SplitRange returns the w-th of p contiguous near-equal partitions of
// [0, n) as a half-open interval: the first n%p partitions get one extra
// iteration. It is the Static schedule's partitioning, so callers can
// pre-allocate per-worker state.
func SplitRange(n, p, w int) (lo, hi int) {
	if p <= 0 || w < 0 || w >= p || n <= 0 {
		return 0, 0
	}
	base, extra := n/p, n%p
	lo = w*base + min(w, extra)
	hi = lo + base
	if w < extra {
		hi++
	}
	return lo, hi
}
