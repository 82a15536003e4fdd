package parallel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolDispatchAllocs is the allocation contract of a loop on the pool:
// after warm-up a run in any body form allocates nothing — the run record
// and its completion signal are recycled, and no form is wrapped in a
// second closure.
func TestPoolDispatchAllocs(t *testing.T) {
	if testing.Short() {
		// make test-race pairs -short with the race detector, under which
		// sync.Pool drops items at random and the record pool allocates.
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	for _, workers := range []int{2, 4} {
		p := NewPool(workers)
		defer p.Close()
		out := make([]float64, 4096)
		ranged := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i]++
			}
		}
		each := func(i int) { out[i]++ }
		kernel := func(o Operands, lo, hi int) {
			for i := lo; i < hi; i++ {
				o.Dst[i]++
			}
		}
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"ForRange/static", func() { p.ForRange(len(out), Static, ranged) }},
			{"ForRange/guided", func() { p.ForRange(len(out), Guided, ranged) }},
			{"For", func() { p.For(len(out), Static, each) }},
			{"ForKernel", func() { p.ForKernel(len(out), Static, kernel, Operands{Dst: out}) }},
		} {
			for i := 0; i < 100; i++ {
				tc.run() // warm-up: fill the record pool
			}
			if got := testing.AllocsPerRun(1000, tc.run); got != 0 {
				t.Errorf("workers=%d %s: %v allocs per run, want 0", workers, tc.name, got)
			}
		}
	}
}

// TestPoolRecycleStress hammers record reuse with the late ticket in mind:
// tiny runs from many submitters keep the ticket queue full of tickets whose
// runs have already finished. Every body writes only into a slice sized for
// its own run and every run checks each index was visited exactly once, so
// a record recycled while a ticket for it was still out — which would hand a
// worker another run's bounds or body — shows up as an index out of range,
// a miscounted slot, or a report from the race detector.
func TestPoolRecycleStress(t *testing.T) {
	const submitters, runs, panicEvery = 8, 10000, 1000
	p := NewPool(4)
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 1; k <= runs; k++ {
				n := 1 + rng.Intn(64)
				sched := Schedule(k % 2)
				if k%panicEvery == 0 {
					// A one-iteration run is inlined and panics unwrapped.
					want := fmt.Sprintf("submitter %d run %d", g, k)
					pe := recoverRun(t, func() {
						p.ForRange(n+1, sched, func(lo, hi int) { panic(want) })
					})
					if pe == nil || pe.Value != want {
						t.Errorf("run %d of submitter %d: recovered %v, want its own panic %q", k, g, pe, want)
						return
					}
					continue
				}
				seen := make([]int32, n)
				visit := func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				}
				switch k % 4 {
				case 0:
					p.ForRange(n, sched, visit)
				case 1:
					p.For(n, sched, func(i int) { seen[i]++ })
				case 2:
					p.ForKernel(n, sched, func(o Operands, lo, hi int) { o.M.(func(lo, hi int))(lo, hi) }, Operands{M: visit})
				default:
					// Nested: each outer iteration submits an inner run
					// over its own slice.
					inner := make([][]int32, n)
					p.For(n, sched, func(i int) {
						seen[i]++
						inner[i] = make([]int32, 1+i%5)
						row := inner[i]
						p.ForRange(len(row), Static, func(lo, hi int) {
							for j := lo; j < hi; j++ {
								row[j]++
							}
						})
					})
					for i, row := range inner {
						for j, c := range row {
							if c != 1 {
								t.Errorf("nested run %d/%d: index %d visited %d times", k, i, j, c)
								return
							}
						}
					}
				}
				for i, c := range seen {
					if c != 1 {
						t.Errorf("run %d of submitter %d (n=%d): index %d visited %d times", k, g, n, i, c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolCloseWithQueuedTickets: Close with tickets still queued neither
// blocks nor disturbs the runs those tickets belong to, and later runs
// still complete on their submitters.
func TestPoolCloseWithQueuedTickets(t *testing.T) {
	p := NewPool(4)
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The three pooled workers and the submitter each block in a chunk;
		// meanwhile the loop below fills the queue with tickets nobody can
		// take before Close.
		var once sync.Once
		p.ForRange(4, Static, func(lo, hi int) {
			once.Do(func() { close(started) })
			<-release
		})
	}()
	<-started
	var sum atomic.Int64
	count := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	for i := 0; i < 8; i++ {
		p.ForRange(100, Static, count) // its tickets queue up behind the blocked run
	}
	p.Close()
	close(release)
	<-done
	p.ForRange(100, Guided, count)
	if got := sum.Load(); got != 900 {
		t.Fatalf("ran %d iterations around Close, want 900", got)
	}
}
