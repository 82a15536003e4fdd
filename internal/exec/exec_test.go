package exec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilExecIsSerialAndSafe(t *testing.T) {
	var e *Exec
	if e.Workers() != 1 || e.Sched() != Static || e.Tracking() {
		t.Fatal("nil Exec must read as serial, static, untracked")
	}
	count := 0
	e.ForRange(5, func(lo, hi int) { count += hi - lo })
	e.ForParts(3, func(w int) { count++ })
	if count != 5+3 {
		t.Fatalf("nil Exec ran %d iterations, want 8", count)
	}
	// Begin/End on nil must not touch the clock or panic.
	start := e.Begin()
	if !start.IsZero() {
		t.Fatal("nil Exec Begin must return the zero Time")
	}
	e.End(KindCSR, 10, start)
	e.Close()
}

func TestExecForRangeCoversAll(t *testing.T) {
	for _, sched := range []Sched{Static, Guided} {
		e := New(4, sched)
		for _, n := range []int{0, 1, 3, 100, 2047} {
			seen := make([]atomic.Int32, max(n, 1))
			e.ForRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("sched=%v n=%d: index %d visited %d times", sched, n, i, got)
				}
			}
		}
		e.Close()
	}
}

func TestExecForPartsRunsEachOnce(t *testing.T) {
	e := New(4, Static)
	defer e.Close()
	for _, parts := range []int{1, 2, 4, 9} {
		seen := make([]atomic.Int32, parts)
		e.ForParts(parts, func(w int) { seen[w].Add(1) })
		for w := range seen {
			if got := seen[w].Load(); got != 1 {
				t.Fatalf("parts=%d: part %d ran %d times", parts, w, got)
			}
		}
	}
}

func TestExecReductionsMatchSerial(t *testing.T) {
	e := New(4, Static)
	defer e.Close()
	n := 3 * serialGrain // above the grain: the partial-merge path
	val := func(i int) float64 { return float64((i*2654435761)%977) - 488 }
	ok := func(i int) bool { return i%3 != 0 }

	var s *Exec // serial reference
	if got, want := e.ArgMin(n, ok, val), s.ArgMin(n, ok, val); got != want {
		t.Fatalf("ArgMin = %+v, want %+v", got, want)
	}
	if got, want := e.ArgMax(n, ok, val), s.ArgMax(n, ok, val); got != want {
		t.Fatalf("ArgMax = %+v, want %+v", got, want)
	}
	if got := e.ArgMin(0, nil, val); got.Index != -1 {
		t.Fatalf("empty ArgMin = %+v, want Index -1", got)
	}
}

// SMO's working-set choice is an ArgMin / ArgMax pair, so the bit-identical
// trajectory across worker counts (DESIGN §6) rests on the reductions
// agreeing with a serial scan, ties included.
func TestArgMinArgMax(t *testing.T) {
	vals := []float64{5, 3, 9, -2, 7, -2, 11}
	for _, p := range []int{1, 2, 3, 7} {
		e := New(p, Static)
		mn := e.ArgMin(len(vals), nil, func(i int) float64 { return vals[i] })
		if mn.Index != 3 || mn.Value != -2 {
			t.Fatalf("p=%d ArgMin: got %+v", p, mn)
		}
		mx := e.ArgMax(len(vals), nil, func(i int) float64 { return vals[i] })
		if mx.Index != 6 || mx.Value != 11 {
			t.Fatalf("p=%d ArgMax: got %+v", p, mx)
		}
		e.Close()
	}
}

func TestArgMinWithFilter(t *testing.T) {
	e := New(3, Static)
	defer e.Close()
	vals := []float64{5, 3, 9, -2, 7}
	even := func(i int) bool { return i%2 == 0 }
	got := e.ArgMin(len(vals), even, func(i int) float64 { return vals[i] })
	if got.Index != 0 || got.Value != 5 {
		t.Fatalf("filtered ArgMin: got %+v", got)
	}
}

func TestArgMinEmptyAndAllFiltered(t *testing.T) {
	e := New(2, Static)
	defer e.Close()
	if got := e.ArgMin(0, nil, func(int) float64 { return 0 }); got.Index != -1 {
		t.Fatalf("empty: got %+v", got)
	}
	none := func(int) bool { return false }
	if got := e.ArgMax(10, none, func(int) float64 { return 0 }); got.Index != -1 {
		t.Fatalf("all filtered: got %+v", got)
	}
}

func TestArgMinTieBreaksToSmallestIndex(t *testing.T) {
	// Long enough for the partial-merge path, with the tied pair in
	// different parts at every worker count.
	n := 2 * serialGrain
	low, high := make([]float64, n), make([]float64, n)
	low[20], low[n-20] = -1, -1
	high[20], high[n-20] = 1, 1
	for _, p := range []int{1, 2, 4, 8} {
		e := New(p, Static)
		if got := e.ArgMin(len(low), nil, func(i int) float64 { return low[i] }); got.Index != 20 {
			t.Fatalf("p=%d: ArgMin tie broke to %d, want 20", p, got.Index)
		}
		if got := e.ArgMax(len(high), nil, func(i int) float64 { return high[i] }); got.Index != 20 {
			t.Fatalf("p=%d: ArgMax tie broke to %d, want 20", p, got.Index)
		}
		e.Close()
	}
}

func TestStatsCountersAccumulate(t *testing.T) {
	st := &Stats{}
	e := New(2, Static).WithStats(st)
	defer e.Close()
	if !e.Tracking() {
		t.Fatal("WithStats must enable tracking")
	}
	for i := 0; i < 3; i++ {
		start := e.Begin()
		if start.IsZero() {
			t.Fatal("Begin with stats must return a real time")
		}
		e.End(KindELL, 40, start)
	}
	snap := st.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindELL || snap[0].Calls != 3 || snap[0].Elements != 120 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if tot := st.Total(); tot.Calls != 3 || tot.Elements != 120 {
		t.Fatalf("total = %+v", tot)
	}
}

func TestStatsConcurrentUpdates(t *testing.T) {
	st := &Stats{}
	e := Default().WithStats(st)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			k := Kind(g % int(numKinds))
			for i := 0; i < per; i++ {
				e.End(k, 5, time.Now())
			}
		}(g)
	}
	wg.Wait()
	if tot := st.Total(); tot.Calls != goroutines*per || tot.Elements != goroutines*per*5 {
		t.Fatalf("total = %+v, want %d calls", tot, goroutines*per)
	}
}

func TestWithSchedSharesPool(t *testing.T) {
	e := New(4, Static)
	defer e.Close()
	g := e.WithSched(Guided)
	if g.Sched() != Guided || g.Workers() != 4 {
		t.Fatalf("derived ctx = %d workers sched %v", g.Workers(), g.Sched())
	}
	g.Close() // must not close the shared pool
	var n atomic.Int32
	e.ForRange(100, func(lo, hi int) { n.Add(int32(hi - lo)) })
	if n.Load() != 100 {
		t.Fatal("parent pool must survive derived Close")
	}
}

func TestDefaultIsSharedAndPooled(t *testing.T) {
	a, b := Default(), Default()
	if a != b {
		t.Fatal("Default must return one shared context")
	}
	if a.Workers() < 1 {
		t.Fatalf("Default workers = %d", a.Workers())
	}
}

// TestSerialGrain: element-wise loops below the grain run inline on the
// caller, at or above it on the pool, and a row loop is never cut off.
func TestSerialGrain(t *testing.T) {
	e := New(4, Static)
	defer e.Close()
	if got := e.ElementParts(serialGrain - 1); got != 1 {
		t.Fatalf("ElementParts below the grain = %d, want 1", got)
	}
	if got := e.ElementParts(serialGrain); got != 4 {
		t.Fatalf("ElementParts at the grain = %d, want 4", got)
	}
	if got := e.Parts(8); got != 4 {
		t.Fatalf("Parts(8) = %d: the grain must not apply to row loops", got)
	}
	for _, n := range []int{0, 1, serialGrain - 1, serialGrain, 3*serialGrain + 1} {
		seen := make([]atomic.Int32, max(n, 1))
		var chunks atomic.Int32
		e.ForElements(n, func(lo, hi int) {
			chunks.Add(1)
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := 0; i < n; i++ {
			if seen[i].Load() != 1 {
				t.Fatalf("n=%d: element %d visited %d times", n, i, seen[i].Load())
			}
		}
		if n > 0 && n < serialGrain && chunks.Load() != 1 {
			t.Fatalf("n=%d below the grain ran in %d chunks, want 1 inline", n, chunks.Load())
		}
		if n >= serialGrain && chunks.Load() != 4 {
			t.Fatalf("n=%d ran in %d chunks, want one per worker", n, chunks.Load())
		}
	}
}
