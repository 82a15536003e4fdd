package telemetry

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

func TestSpanWireIDDeterministic(t *testing.T) {
	a := SpanWireID("0123456789abcdef", "node-a", 3)
	if a != SpanWireID("0123456789abcdef", "node-a", 3) {
		t.Fatal("wire id not deterministic")
	}
	if !ValidTraceID(a) {
		t.Fatalf("wire id %q not 16-hex", a)
	}
	// Distinct on any input change — node matters, so two nodes' span 0
	// never collide within one trace.
	for _, other := range []string{
		SpanWireID("0123456789abcdef", "node-b", 3),
		SpanWireID("0123456789abcdef", "node-a", 4),
		SpanWireID("fedcba9876543210", "node-a", 3),
	} {
		if a == other {
			t.Fatalf("wire id collision: %q", a)
		}
	}
}

// TestSpanWireIDIsFNV64a pins the wire id to fnv64a over "trace|node|id":
// the assembler recomputes ids a peer derived, so every build in a ring must
// agree on them byte for byte. The inlined hash allocates only the id.
func TestSpanWireIDIsFNV64a(t *testing.T) {
	for _, tc := range []struct {
		trace, node string
		id          int
	}{{"0123456789abcdef", "node-a", 3}, {"fedcba9876543210", "", 0}, {"", "n12", -7}, {"00000000000000fb", "n1", 1 << 40}} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d", tc.trace, tc.node, tc.id)
		if got, want := SpanWireID(tc.trace, tc.node, tc.id), fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Errorf("SpanWireID(%q, %q, %d) = %s, want %s", tc.trace, tc.node, tc.id, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { SpanWireID("0123456789abcdef", "node-a", 12) }); allocs > 1 {
		t.Errorf("SpanWireID allocates %.0f objects, want the id string only", allocs)
	}
}

func TestValidTraceID(t *testing.T) {
	if !ValidTraceID(NewTraceID()) {
		t.Fatal("NewTraceID not valid")
	}
	for _, bad := range []string{"", "0123", "0123456789abcdeg", "0123456789ABCDEF", "0123456789abcdef0"} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true", bad)
		}
	}
}

func TestNewTraceIDsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestNewRemoteTraceJoinsAndDegrades(t *testing.T) {
	_, origin, oroot := NewTrace(context.Background(), "schedule")
	origin.SetNode("node-a")
	tid, parent, ok := ContextTraceParent(contextWith(origin, oroot))
	if !ok || tid != origin.ID {
		t.Fatalf("ContextTraceParent: %q %q %v", tid, parent, ok)
	}

	store := NewTraceStore(2)
	_, frag, froot := store.NewRemoteTrace(context.Background(), tid, parent, "node-b", "schedule")
	if frag.ID != tid {
		t.Fatalf("fragment id %q, want %q", frag.ID, tid)
	}
	froot.End()
	frag.Finish()
	snap := frag.Snapshot()
	if snap.Node != "node-b" || snap.RemoteParent != parent {
		t.Fatalf("fragment snapshot: node=%q remote_parent=%q", snap.Node, snap.RemoteParent)
	}
	if !hasAttr(snap.Spans[0], "node=node-b") {
		t.Fatalf("fragment root missing node attr: %v", snap.Spans[0].AttrList)
	}

	// Garbage ids degrade to a fresh local trace instead of poisoning the store.
	_, deg, _ := store.NewRemoteTrace(context.Background(), "not-hex!", "also-bad", "node-b", "schedule")
	if deg.ID == "not-hex!" || !ValidTraceID(deg.ID) || deg.Snapshot().RemoteParent != "" {
		t.Fatalf("invalid ids should degrade: %+v", deg.Snapshot())
	}
}

// contextWith rebuilds the context a trace's root span rides; NewTrace
// returns it, but tests that only kept the trace need it back.
func contextWith(tr *Trace, root Span) context.Context {
	return &spanCtx{Context: context.Background(), span: root}
}

func hasAttr(s SpanJSON, kv string) bool {
	for _, a := range s.AttrList {
		if a == kv {
			return true
		}
	}
	return false
}

// buildFragments simulates a forwarded schedule: node-a's trace forwards
// under span "cluster.forward", node-b records a remote fragment.
func buildFragments(t *testing.T) (origin, fragment TraceJSON, parentWire string) {
	t.Helper()
	ctx, otr, oroot := NewTrace(context.Background(), "schedule")
	otr.SetNode("node-a")
	fctx, fsp := StartSpan(ctx, "cluster.forward")
	tid, parent, _ := ContextTraceParent(fctx)
	_, btr, broot := NewTraceStore(2).NewRemoteTrace(context.Background(), tid, parent, "node-b", "schedule")
	_, dsp := StartSpan(contextWith(btr, broot), "decide")
	dsp.End()
	broot.End()
	btr.Finish()
	fsp.End()
	oroot.End()
	otr.Finish()
	return otr.Snapshot(), btr.Snapshot(), parent
}

func TestAssembleTraceGraftsFragment(t *testing.T) {
	origin, fragment, _ := buildFragments(t)
	out := AssembleTrace([]TraceJSON{fragment, origin}) // order must not matter
	if out.TraceID != origin.TraceID {
		t.Fatalf("assembled id %q, want %q", out.TraceID, origin.TraceID)
	}
	if len(out.Spans) != len(origin.Spans)+len(fragment.Spans) {
		t.Fatalf("assembled %d spans, want %d", len(out.Spans), len(origin.Spans)+len(fragment.Spans))
	}
	// The fragment root must be parented under node-a's cluster.forward span.
	var forwardID = -1
	byID := make(map[int]SpanJSON)
	for _, s := range out.Spans {
		byID[s.ID] = s
		if s.Name == "cluster.forward" {
			forwardID = s.ID
		}
	}
	if forwardID < 0 {
		t.Fatalf("no cluster.forward span in assembled trace: %+v", out.Spans)
	}
	nodes := map[string]bool{}
	rootCount := 0
	for _, s := range out.Spans {
		nodes[s.Node] = true
		if s.Parent == -1 {
			rootCount++
		} else if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %d has dangling parent %d", s.ID, s.Parent)
		}
		if s.Name == "schedule" && s.Node == "node-b" && s.Parent != forwardID {
			t.Fatalf("fragment root parented to %d, want cluster.forward %d", s.Parent, forwardID)
		}
	}
	if rootCount != 1 {
		t.Fatalf("assembled trace has %d roots, want 1", rootCount)
	}
	if !nodes["node-a"] || !nodes["node-b"] {
		t.Fatalf("assembled spans missing node attribution: %v", nodes)
	}
}

func TestAssembleTraceUnresolvedParent(t *testing.T) {
	_, fragment, _ := buildFragments(t)
	// Another fragment of the same trace whose parent span lives on an
	// unreachable node: it must graft under whatever root we have, marked.
	orphan := TraceJSON{
		TraceID:      fragment.TraceID,
		Start:        fragment.Start.Add(time.Millisecond),
		Node:         "node-c",
		RemoteParent: SpanWireID(fragment.TraceID, "node-x", 5),
		Spans:        []SpanJSON{{ID: 0, Parent: -1, Name: "replicate.apply"}},
	}
	out := AssembleTrace([]TraceJSON{fragment, orphan})
	var found bool
	for _, s := range out.Spans {
		if s.Name == "replicate.apply" {
			found = true
			if s.Parent != 0 {
				t.Fatalf("orphan parented to %d, want root 0", s.Parent)
			}
			if !strings.Contains(strings.Join(s.AttrList, " "), "link=unresolved") {
				t.Fatalf("orphan missing link=unresolved attr: %v", s.AttrList)
			}
		}
	}
	if !found {
		t.Fatal("orphan fragment dropped")
	}
}

func TestAssembleTraceDegenerateInputs(t *testing.T) {
	if out := AssembleTrace(nil); len(out.Spans) != 0 || out.TraceID != "" {
		t.Fatalf("empty assembly: %+v", out)
	}
	origin, _, _ := buildFragments(t)
	if out := AssembleTrace([]TraceJSON{origin}); len(out.Spans) != len(origin.Spans) {
		t.Fatalf("single-fragment assembly should be identity, got %d spans", len(out.Spans))
	}
}

func BenchmarkNewTraceID(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = NewTraceID()
		}
	})
}
