package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// record files one finished trace of n leaf spans, every span tagged with
// who recorded it, and returns what the recorder may still be holding
// afterwards: the trace, its context and two of its spans.
func record(s *TraceStore, who string, n int) (*Trace, context.Context, Span, Span) {
	ctx, tr, root := s.NewTrace(context.Background(), "root", String("who", who))
	var last Span
	for i := 0; i < n; i++ {
		last = StartLeaf(ctx, "leaf", String("who", who), Int("i", i), Bytes("key", []byte(who)))
		last.End()
	}
	root.End()
	tr.Finish()
	s.Put(tr)
	return tr, ctx, root, last
}

// useLate is everything a recorder could still do with what record
// returned, after the store owns the trace.
func useLate(tr *Trace, ctx context.Context, root, leaf Span) {
	leaf.End()
	leaf.Annotate(String("late", "1"))
	leaf.EndErr(errors.New("late"))
	root.Annotate(Int("late", 1), Bytes("late", []byte("1")))
	root.EndErr(errors.New("late"))
	StartLeaf(ctx, "late", String("late", "1")).End()
	cctx, sp := StartSpan(ctx, "late")
	StartLeaf(cctx, "late").End()
	sp.End()
	tr.SetNode("late")
	tr.Finish()
}

// consistent checks a snapshot against itself: it is the trace asked for,
// parents precede children, every attribute belongs to the recorder named
// on the root, and nothing a late caller wrote is in it.
func consistent(snap TraceJSON, id string) error {
	if snap.TraceID != id {
		return fmt.Errorf("asked for %s, got %s", id, snap.TraceID)
	}
	if len(snap.Spans) == 0 || snap.Spans[0].Parent != -1 || snap.Spans[0].Name != "root" || len(snap.Spans[0].AttrList) != 1 {
		return fmt.Errorf("root: %+v", snap.Spans)
	}
	who := snap.Spans[0].AttrList[0]
	for i, sp := range snap.Spans[1:] {
		want := []string{who, fmt.Sprintf("i=%d", i), "key=" + strings.TrimPrefix(who, "who=")}
		if sp.ID != i+1 || sp.Parent != 0 || sp.Name != "leaf" || sp.Error != "" || strings.Join(sp.AttrList, " ") != strings.Join(want, " ") {
			return fmt.Errorf("span %d of %s's trace: %+v", i+1, who, sp)
		}
	}
	return nil
}

// TestTraceRecycle holds the store's recycling to its invariants: an
// evicted trace's storage is what the next trace records into; whatever
// the evicted trace's recorder still holds does nothing; a second trace put
// under a held id neither leaks the first nor frees anything twice; and
// once the ring is full, recording costs the trace header and its id, and
// nothing per span.
func TestTraceRecycle(t *testing.T) {
	t.Run("late use", func(t *testing.T) {
		s := NewTraceStore(2)
		a, actx, aroot, aleaf := record(s, "a", 3)
		if snap, ok := s.Get(a.ID); !ok || consistent(snap, a.ID) != nil || len(snap.Spans) != 4 {
			t.Fatalf("stored trace: %v %+v", ok, snap)
		}
		// Finished and stored, not yet evicted: already frozen.
		useLate(a, actx, aroot, aleaf)
		if snap, _ := s.Get(a.ID); consistent(snap, a.ID) != nil || snap.Node != "" {
			t.Fatalf("late use changed a stored trace: %v %+v", consistent(snap, a.ID), snap)
		}
		record(s, "b", 1)
		record(s, "c", 1) // evicts a
		if _, ok := s.Get(a.ID); ok || s.Evicted() != 1 || len(s.free) != 1 {
			t.Fatalf("a not evicted into the free list: evicted %d, free %d", s.Evicted(), len(s.free))
		}
		spans := &s.free[0].spans[:1][0]
		ctx, d, _ := s.NewTrace(context.Background(), "root", String("who", "d"))
		if &d.st.spans[0] != spans || len(s.free) != 0 {
			t.Fatal("the next trace did not record into the evicted trace's storage")
		}
		StartLeaf(ctx, "leaf", String("who", "d"), Int("i", 0), Bytes("key", []byte("d"))).End()
		before, _ := json.Marshal(d.Snapshot())
		useLate(a, actx, aroot, aleaf)
		s.Put(a) // and it cannot be put back
		if after, _ := json.Marshal(d.Snapshot()); string(after) != string(before) {
			t.Fatalf("late use of the evicted trace reached its storage's new owner:\n%s\n%s", before, after)
		}
		if err := consistent(d.Snapshot(), d.ID); err != nil {
			t.Fatal(err)
		}
		if snap := a.Snapshot(); len(snap.Spans) != 0 || snap.TraceID != a.ID || len(s.byID) != 2 {
			t.Fatalf("evicted trace still holds spans, or came back: %+v, %d held", snap, len(s.byID))
		}
	})

	t.Run("second trace under one id", func(t *testing.T) {
		s := NewTraceStore(4)
		const id = "00000000000000a1"
		frag := func(name string) *Trace {
			_, tr, root := s.NewRemoteTrace(context.Background(), id, "", "n2", name)
			root.End()
			tr.Finish()
			return tr
		}
		first, second := frag("first"), frag("second")
		s.Put(first)
		s.Put(second)
		s.Put(second)
		s.Put(first) // released: must not displace second
		snap, ok := s.Get(id)
		if !ok || snap.Spans[0].Name != "second" || len(s.byID) != 1 || len(s.free) != 1 || len(first.Snapshot().Spans) != 0 {
			t.Fatalf("held %d, free %d, got %+v", len(s.byID), len(s.free), snap)
		}
		for i := 0; i < 4; i++ {
			record(s, "x", 1)
		}
		// The first x recorded into first's storage; the fourth evicted
		// second, whose storage is the one now waiting.
		if _, ok := s.Get(id); ok || s.Evicted() != 1 || len(s.byID) != 4 || len(s.free) != 1 {
			t.Fatalf("after the ring turned over: held %d, evicted %d, free %d", len(s.byID), s.Evicted(), len(s.free))
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		s := NewTraceStore(4)
		rounds := 1250
		if testing.Short() {
			rounds = 250
		}
		ids := make(chan string, 64)
		var writers, readers sync.WaitGroup
		for g := 0; g < 8; g++ {
			writers.Add(1)
			go func(g int) {
				defer writers.Done()
				who := fmt.Sprint("g", g)
				tr, ctx, root, leaf := record(s, who, 1)
				for i := 0; i < rounds; i++ {
					// What the previous round left behind is used while this
					// round records, possibly into the same storage.
					ptr, pctx, proot, pleaf := tr, ctx, root, leaf
					tr, ctx, root, leaf = record(s, who, 1+(g+i)%5)
					useLate(ptr, pctx, proot, pleaf)
					select {
					case ids <- tr.ID:
					default:
					}
				}
			}(g)
		}
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for id := range ids {
					if snap, ok := s.Get(id); ok {
						if err := consistent(snap, id); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		writers.Wait()
		close(ids)
		readers.Wait()
		if len(s.byID) != 4 || s.Evicted() < int64(8*rounds) {
			t.Fatalf("held %d, evicted %d", len(s.byID), s.Evicted())
		}
	})

	t.Run("allocations", func(t *testing.T) {
		if testing.Short() {
			t.Skip("make test-race pairs -short with the race detector, which allocates")
		}
		s := NewTraceStore(4)
		key := []byte("v2|hybrid/2|38,30,52")
		cycle := func(spans int) func() {
			return func() {
				ctx, tr, root := s.NewTrace(context.Background(), "schedule", String("policy", "hybrid"))
				for i := 0; i < spans; i++ {
					sp := StartLeaf(ctx, "cache.do", Bytes("key", key), Int("rows", 960+i))
					sp.Annotate(String("outcome", "hit"), Float("confidence", 0.84), Dur("took", 1500))
					sp.End()
				}
				root.Annotate(Int("status", 200))
				root.EndErr(nil)
				tr.Finish()
				s.Put(tr)
			}
		}
		for i := 0; i < 8; i++ {
			cycle(30)() // fill the ring, and grow every storage in it
		}
		// The header and the 16-character id are the trace itself, left to
		// the collector on purpose (see Trace); the spans are free.
		three, thirty := testing.AllocsPerRun(100, cycle(3)), testing.AllocsPerRun(100, cycle(30))
		if three != 2 || thirty != 2 {
			t.Fatalf("a recycled trace allocates %.0f with 3 spans and %.0f with 30, want 2 and 2", three, thirty)
		}
	})
}

// TestTraceAttributeSlab holds a trace's attributes to its slab: a fresh
// 200-span trace allocates its attributes a chunk at a time, not a slice
// per span, and reset leaves no span holding a run of a slab the next trace
// will write into.
func TestTraceAttributeSlab(t *testing.T) {
	const spans = 200
	record := func() *Trace {
		ctx, tr, root := NewTrace(context.Background(), "schedule.choose", String("policy", "empirical"))
		for i := 0; i < spans; i++ {
			sp := StartLeaf(ctx, "measure.rep", Int("trial", i%3), Int("rep", i%2))
			sp.Annotate(Dur("took", time.Duration(i)))
			sp.End()
		}
		root.Annotate(String("chosen", "CSR/static/fused"))
		root.End()
		tr.Finish()
		return tr
	}
	t.Run("allocations", func(t *testing.T) {
		if testing.Short() {
			t.Skip("make test-race pairs -short with the race detector, which allocates")
		}
		// The header and id, the first spanChunk spans grown by append (7),
		// the other 136 in three chunks and the list of them (6), and 602
		// attribute records in a slab and its chunks of 8, 16, 32 and then
		// 64 records (1 + 12): 28. A slice per span was 2 allocations a span.
		if got := testing.AllocsPerRun(20, func() { record() }); got > 28 {
			t.Fatalf("a fresh %d-span trace allocates %.0f times, want at most 28", spans, got)
		}
	})
	t.Run("reset", func(t *testing.T) {
		tr := record()
		snap := tr.Snapshot()
		if got := snap.Spans[spans].AttrList; strings.Join(got, " ") != "trial=1 rep=1 took=199ns" {
			t.Fatalf("last span's attributes %v", got)
		}
		if got := snap.Spans[0].AttrList; strings.Join(got, " ") != "policy=empirical chosen=CSR/static/fused" {
			t.Fatalf("root's attributes %v", got)
		}
		st := tr.release()
		for i, sp := range st.spans[:cap(st.spans)] {
			if sp.attrs != nil || sp.name != "" {
				t.Fatalf("span slot %d still holds %+v after reset", i, sp)
			}
		}
		if s := st.slab; len(s.recs) != 0 || cap(s.recs) > keptSlab || s.spilt != 0 {
			t.Fatalf("slab of %d records (cap %d, %d spilt) after reset", len(s.recs), cap(s.recs), s.spilt)
		}
	})
}

// BenchmarkTraceRecord is tracing's own cost on a warmed request: what a
// /v1/schedule hit records (a root and two leaf spans) and what a 16-item
// batch does (a root and, per item, a span with a context and two leaves),
// into a full ring. The trace row of EXPERIMENTS.md's "What a cache hit
// still allocates".
func BenchmarkTraceRecord(b *testing.B) {
	s := NewTraceStore(0)
	key := []byte("v2|hybrid/2|19,30,33,20,9,15,15,0,150")
	item := func(ctx context.Context) {
		psp := StartLeaf(ctx, "request.parse")
		psp.Annotate(Int("rows", 10), Int("features", 40))
		psp.EndErr(nil)
		StartLeaf(ctx, "cache.do", Bytes("key", key), String("outcome", "hit"), String("source", "measured")).End()
	}
	file := func(tr *Trace, root Span) {
		root.Annotate(Int("status", 200))
		root.EndErr(nil)
		tr.Finish()
		s.Put(tr)
	}
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"schedule", func() {
			ctx, tr, root := s.NewTrace(context.Background(), "schedule", String("policy", "hybrid"))
			item(ctx)
			file(tr, root)
		}},
		{"batch16", func() {
			ctx, tr, root := s.NewTrace(context.Background(), "schedule.batch", Int("items", 16))
			for i := 0; i < 16; i++ {
				ictx, isp := StartSpan(ctx, "batch.item", Int("index", i))
				item(ictx)
				isp.Annotate(String("chosen", "ELL"), String("source", "cache"))
				isp.End()
			}
			file(tr, root)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < DefaultTraceCapacity+8; i++ {
				bc.run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
