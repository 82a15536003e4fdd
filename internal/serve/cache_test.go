package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// cached counts a cache's resident entries across its shards.
func cached[V Degradable](c *Cache[V]) int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func dec(f sparse.Format) *CachedDecision {
	return &CachedDecision{Verdict: core.Verdict[sparse.Candidate]{Candidate: sparse.BaseCandidate(f), Rung: core.RungMeasured}}
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	c := NewCache[*CachedDecision](1, 2) // one shard, two entries: eviction is deterministic
	mk := func(key string) (*CachedDecision, string) {
		v, outcome, err := c.Do(key, func() (*CachedDecision, error) { return dec(sparse.CSR), nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, outcome
	}
	if _, outcome := mk("a"); outcome != "miss" {
		t.Fatalf("first a: %s", outcome)
	}
	if _, outcome := mk("b"); outcome != "miss" {
		t.Fatalf("first b: %s", outcome)
	}
	if _, outcome := mk("a"); outcome != "hit" {
		t.Fatalf("second a: %s", outcome)
	}
	// Capacity 2: inserting c evicts the least recently used key, which is
	// b (a was just touched).
	mk("c")
	if _, outcome := mk("a"); outcome != "hit" {
		t.Fatalf("a evicted despite recent use: %s", outcome)
	}
	if _, outcome := mk("b"); outcome != "miss" {
		t.Fatalf("b not evicted: %s", outcome)
	}
	if c.evictions.Load() == 0 {
		t.Fatal("no evictions recorded")
	}
	if n := cached(c); n > 2 {
		t.Fatalf("capacity exceeded: %d entries", n)
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	c := NewCache[*CachedDecision](4, 4) // 16 entries total across shards
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, _, err := c.Do(key, func() (*CachedDecision, error) { return dec(sparse.ELL), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := cached(c); n > 16 {
		t.Fatalf("cache grew past capacity: %d entries", n)
	}
	if got := c.evictions.Load(); got < 200-16 {
		t.Fatalf("evictions %d, want >= %d", got, 200-16)
	}
	// Entries still present serve hits.
	if _, outcome, _ := c.Do("key-199", func() (*CachedDecision, error) { return dec(sparse.COO), nil }); outcome != "hit" {
		t.Fatalf("most recent key gone: %s", outcome)
	}
}

func TestCacheSingleflightExactlyOnce(t *testing.T) {
	c := NewCache[*CachedDecision](8, 32)
	var calls atomic.Int64
	const n = 16
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	outcomes := make([]string, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			v, outcome, err := c.Do("shared", func() (*CachedDecision, error) {
				calls.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return dec(sparse.DIA), nil
			})
			if err != nil || v.Candidate.Format != sparse.DIA {
				t.Errorf("goroutine %d: %v %v", i, v, err)
			}
			outcomes[i] = outcome
		}(i)
	}
	start.Done()
	done.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	misses := 0
	for _, o := range outcomes {
		if o == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want 1 (outcomes %v)", misses, outcomes)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache[*CachedDecision](1, 4)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (*CachedDecision, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if n := cached(c); n != 0 {
		t.Fatalf("error cached: %d entries", n)
	}
	v, outcome, err := c.Do("k", func() (*CachedDecision, error) { return dec(sparse.DEN), nil })
	if err != nil || outcome != "miss" || v.Candidate.Format != sparse.DEN {
		t.Fatalf("retry after error: %v %s %v", v, outcome, err)
	}
}

func TestKeyGroupsShapeClasses(t *testing.T) {
	// Clones of one Table V dataset under different seeds are the same
	// shape class; structurally different datasets are not.
	d, err := dataset.ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	f1 := dataset.Extract(d.MustGenerate(1).MustBuild(sparse.CSR))
	f2 := dataset.Extract(d.MustGenerate(99).MustBuild(sparse.CSR))
	if Key(f1, "hybrid", 2) != Key(f2, "hybrid", 2) {
		t.Fatalf("seed variants split:\n%s\n%s", Key(f1, "hybrid", 2), Key(f2, "hybrid", 2))
	}
	tr, err := dataset.ByName("trefethen")
	if err != nil {
		t.Fatal(err)
	}
	f3 := dataset.Extract(tr.MustGenerate(1).MustBuild(sparse.CSR))
	if Key(f1, "hybrid", 2) == Key(f3, "hybrid", 2) {
		t.Fatal("structurally different datasets share a key")
	}
	// Decision knobs are part of the key: a different policy or top-k must
	// not reuse the other configuration's decision.
	if Key(f1, "hybrid", 2) == Key(f1, "empirical", 2) || Key(f1, "hybrid", 2) == Key(f1, "hybrid", 3) {
		t.Fatal("policy/top-k not separated in key")
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := NewCache[*CachedDecision](4, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				if _, _, err := c.Do(key, func() (*CachedDecision, error) { return dec(sparse.CSR), nil }); err != nil {
					t.Errorf("Do: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Inflight() != 0 {
		t.Fatalf("inflight %d after quiesce", c.Inflight())
	}
}
