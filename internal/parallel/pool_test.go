package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForRangeCoversAllIndicesExactlyOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, sched := range []Schedule{Static, Guided} {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1023, 4097} {
			seen := make([]atomic.Int32, max(n, 1))
			p.ForRange(n, sched, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d,%d)", lo, hi)
				}
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
	}
}

func TestPoolForCoversAllIndices(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 501
	seen := make([]atomic.Int32, n)
	p.For(n, Guided, func(i int) { seen[i].Add(1) })
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const goroutines = 8
	const n = 2048
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			sched := Static
			if g%2 == 1 {
				sched = Guided
			}
			var sum atomic.Int64
			p.ForRange(n, sched, func(lo, hi int) {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				sum.Add(s)
			})
			if want := int64(n) * (n - 1) / 2; sum.Load() != want {
				t.Errorf("goroutine %d: sum = %d, want %d", g, sum.Load(), want)
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolNestedSubmission(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.For(8, Static, func(i int) {
		p.For(16, Guided, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested total = %d, want %d", got, 8*16)
	}
}

func TestPoolAfterCloseStillCompletes(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // idempotent
	n := 300
	seen := make([]atomic.Int32, n)
	p.ForRange(n, Guided, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times after Close", i, got)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers = %d, want 1", p.Workers())
	}
	count := 0
	p.For(5, Static, func(i int) { count++ })
	p.Close()
	if count != 5 {
		t.Fatalf("nil pool ran %d iterations, want 5", count)
	}
}
