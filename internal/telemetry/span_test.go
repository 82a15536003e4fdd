package telemetry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeAssembly(t *testing.T) {
	ctx, tr, root := NewTrace(context.Background(), "schedule", String("policy", "hybrid"))
	cctx, build := StartSpan(ctx, "candidate.build", String("format", "CSR"))
	_, rep := StartSpan(cctx, "measure.rep", Int("rep", 0))
	rep.End()
	build.End()
	_, fail := StartSpan(ctx, "candidate.build", String("format", "DIA"))
	fail.EndErr(errors.New("dia over cap"))
	root.Annotate(String("chosen", "CSR"))
	root.End()
	tr.Finish()

	snap := tr.Snapshot()
	if snap.TraceID != tr.ID || len(snap.Spans) != 4 {
		t.Fatalf("snapshot: id %q, %d spans", snap.TraceID, len(snap.Spans))
	}
	// Parent links: rep under build under root; the failed build under root.
	if snap.Spans[2].Parent != snap.Spans[1].ID || snap.Spans[1].Parent != 0 || snap.Spans[3].Parent != 0 {
		t.Fatalf("parent links wrong: %+v", snap.Spans)
	}
	if snap.Spans[3].Error == "" {
		t.Fatal("EndErr did not record the error")
	}

	tree := tr.Tree()
	for _, want := range []string{"schedule", "candidate.build", "measure.rep", "format=CSR", "chosen=CSR", `error="dia over cap"`} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// The rep is indented under its build, not under the root.
	repLine := ""
	for _, line := range strings.Split(tree, "\n") {
		if strings.Contains(line, "measure.rep") {
			repLine = line
		}
	}
	if !strings.HasPrefix(repLine, "   ") && !strings.HasPrefix(repLine, "│") {
		t.Errorf("rep not nested: %q\n%s", repLine, tree)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != (Span{}) {
		t.Fatal("span on trace-free context")
	}
	if ctx != context.Background() {
		t.Fatal("context rewrapped without a trace")
	}
	// All span methods must be safe on the zero Span.
	sp.End()
	sp.EndErr(errors.New("x"))
	sp.Annotate(String("k", "v"))
}

func TestTraceSpanCap(t *testing.T) {
	ctx, tr, root := NewTrace(context.Background(), "root")
	for i := 0; i < DefaultMaxSpans+50; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != DefaultMaxSpans {
		t.Fatalf("span count %d, want cap %d", len(snap.Spans), DefaultMaxSpans)
	}
	if snap.Dropped != 51 {
		t.Fatalf("dropped = %d, want 51", snap.Dropped)
	}
	if !strings.Contains(tr.Tree(), "spans dropped") {
		t.Fatal("tree does not report dropped spans")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		_, tr, _ := NewTrace(context.Background(), "x")
		if seen[tr.ID] {
			t.Fatalf("duplicate trace ID %q after %d traces", tr.ID, i)
		}
		seen[tr.ID] = true
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(4)
	var ids []string
	for i := 0; i < 10; i++ {
		_, tr, root := NewTrace(context.Background(), fmt.Sprintf("t%d", i))
		root.End()
		tr.Finish()
		s.Put(tr)
		ids = append(ids, tr.ID)
	}
	if len(s.byID) != 4 {
		t.Fatalf("store holds %d traces, want 4", len(s.byID))
	}
	if s.Evicted() != 6 {
		t.Fatalf("evicted = %d, want 6", s.Evicted())
	}
	for _, id := range ids[:6] {
		if _, ok := s.Get(id); ok {
			t.Fatalf("evicted trace %s still retrievable", id)
		}
	}
	for _, id := range ids[6:] {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("recent trace %s missing", id)
		}
	}
}

// TestTraceStoreConcurrent exercises eviction under concurrent load: many
// writers filling a small ring while readers poll. Run with -race.
func TestTraceStoreConcurrent(t *testing.T) {
	s := NewTraceStore(8)
	var wg sync.WaitGroup
	idc := make(chan string, 1024)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, tr, root := NewTrace(context.Background(), "load")
				_, sp := StartSpan(ctx, "child")
				sp.End()
				root.End()
				tr.Finish()
				s.Put(tr)
				select {
				case idc <- tr.ID:
				default:
				}
			}
		}()
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				case id := <-idc:
					if snap, ok := s.Get(id); ok {
						if snap.TraceID != id {
							t.Errorf("Get(%s) answered trace %s", id, snap.TraceID)
						}
						_ = snap.Tree()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if len(s.byID) > 8 {
		t.Fatalf("store overflowed its ring: %d", len(s.byID))
	}
	if s.Evicted() == 0 {
		t.Fatal("no evictions under load")
	}
}

// TestConcurrentSpansSameTrace: spans starting and ending from multiple
// goroutines on one trace must be race-free and all recorded.
func TestConcurrentSpansSameTrace(t *testing.T) {
	ctx, tr, root := NewTrace(context.Background(), "fanout")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, sp := StartSpan(ctx, "worker", Int("g", g))
				sp.Annotate(Int("i", i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	tr.Finish()
	if got := len(tr.Snapshot().Spans); got != 1+8*20 {
		t.Fatalf("span count %d, want %d", got, 1+8*20)
	}
}
