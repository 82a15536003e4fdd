package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultTraceCapacity is the default ring size of a TraceStore: enough to
// hold the recent decision history of a busy daemon without unbounded
// memory (a full 512-span trace is a few hundred KB at most; 256 of them
// stay well under typical heap budgets).
const DefaultTraceCapacity = 256

// TraceStore is a bounded ring buffer of completed traces keyed by trace
// ID. When full, Put evicts the oldest trace; lookups of evicted IDs miss.
// All methods are safe for concurrent use.
//
// Traces recycle through the ring: the storage of an evicted trace — its
// span records, their attribute slab, the bytes of copied values — is
// what the store's next NewTrace records into, so once the ring is full a
// trace costs its header and nothing per span. Two rules keep that safe.
// The store owns a trace from Put on: the recorder has finished it, which
// froze it, and anything the recorder still holds — a Span, the trace's
// context — finds a finished (after eviction, an empty) trace and does
// nothing. And nothing the store holds is handed out: Get answers with a
// snapshot taken under the store's lock, never with the trace.
type TraceStore struct {
	mu      sync.Mutex
	byID    map[string]*Trace
	ring    []string // trace IDs in insertion order, circular
	next    int
	free    []storage // evicted traces' storage, emptied, for NewTrace
	evicted atomic.Int64
}

// maxFreeStorage bounds the evicted storage a store keeps for NewTrace. One
// trace is evicted per trace put, so the list only grows past the number of
// requests in flight when traces started elsewhere (the cluster layer's,
// the online controller's) are put here; past the bound storage goes to the
// collector.
const maxFreeStorage = 64

// NewTraceStore creates a store holding up to capacity traces
// (capacity <= 0 takes DefaultTraceCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{byID: make(map[string]*Trace, capacity), ring: make([]string, capacity)}
}

// NewTrace is the package's NewTrace recording into storage this store
// recycled, when it has any.
func (s *TraceStore) NewTrace(ctx context.Context, name string, attrs ...Attr) (context.Context, *Trace, Span) {
	return startTrace(ctx, s.takeStorage(), newTraceID(), "", "", name, attrs)
}

// NewRemoteTrace starts a local fragment of a distributed trace, recording
// as NewTrace does: id is the propagated 16-hex trace id and parent the wire
// id of the remote span that caused this work (empty if the caller did not
// say). The fragment's root span carries a node attr so assembled trees
// show which node ran what. An invalid id is replaced with a fresh one,
// degrading to a local trace.
func (s *TraceStore) NewRemoteTrace(ctx context.Context, id, parent, node, name string, attrs ...Attr) (context.Context, *Trace, Span) {
	if !ValidTraceID(id) {
		id = newTraceID()
		parent = ""
	}
	if !ValidTraceID(parent) {
		parent = ""
	}
	return startTrace(ctx, s.takeStorage(), id, parent, node, name, attrs)
}

func (s *TraceStore) takeStorage() (st storage) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		st, s.free = s.free[n-1], s.free[:n-1]
	}
	s.mu.Unlock()
	return st
}

// recycle takes t's storage back. Caller holds s.mu.
func (s *TraceStore) recycle(t *Trace) {
	if st := t.release(); len(s.free) < maxFreeStorage {
		s.free = append(s.free, st)
	}
}

// Put inserts a completed trace, evicting the oldest when full, and takes
// ownership of it: the caller records nothing more. Putting a second trace
// under an ID the store holds replaces the first without consuming a slot;
// putting a trace the store already holds, or has already evicted, changes
// nothing.
func (s *TraceStore) Put(t *Trace) {
	if s == nil || t == nil || t.isReleased() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byID[t.ID]; ok {
		if old != t {
			s.byID[t.ID] = t
			s.recycle(old)
		}
		return
	}
	if old := s.ring[s.next]; old != "" {
		s.recycle(s.byID[old])
		delete(s.byID, old)
		s.evicted.Add(1)
	}
	s.ring[s.next] = t.ID
	s.byID[t.ID] = t
	s.next = (s.next + 1) % len(s.ring)
}

// Get returns a snapshot of the trace with the given ID, if it has not been
// evicted. The snapshot is taken under the store's lock, so it is the whole
// trace or a miss — never a trace caught halfway through eviction.
func (s *TraceStore) Get(id string) (TraceJSON, bool) {
	if s == nil {
		return TraceJSON{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	if !ok {
		return TraceJSON{}, false
	}
	return t.Snapshot(), true
}

// Capacity reports the ring size.
func (s *TraceStore) Capacity() int {
	if s == nil {
		return 0
	}
	return len(s.ring)
}

// Evicted reports how many traces have been evicted since creation.
func (s *TraceStore) Evicted() int64 {
	if s == nil {
		return 0
	}
	return s.evicted.Load()
}
