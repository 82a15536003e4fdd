package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	mrand "math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefaultMaxSpans bounds the spans one trace may accumulate; past it new
// spans are counted as dropped instead of recorded, so a pathological
// decision (hundreds of retries) cannot balloon the trace store.
const DefaultMaxSpans = 512

// Attr is one key=value annotation for a span, as it is handed to StartSpan
// or Annotate. A value is kept as what it was given as — a string, a
// number, a duration — and is only spelled out when the trace is read, so
// annotating a span formats and allocates nothing.
type Attr struct {
	Key   string
	kind  attrKind
	str   string // attrString
	num   int64  // the integer of attrInt, the nanoseconds of attrDur, the bits of attrFloat
	bytes []byte // attrBytes: copied when the attribute is stored, never retained
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrDur
	attrBytes
)

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, str: value} }

// Bytes builds a string attribute from bytes the caller goes on to reuse:
// the span copies them into its trace's own storage.
func Bytes(key string, value []byte) Attr { return Attr{Key: key, kind: attrBytes, bytes: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: attrInt, num: int64(v)} }

// Float builds a float attribute, read back in compact form.
func Float(key string, v float64) Attr {
	return Attr{Key: key, kind: attrFloat, num: int64(math.Float64bits(v))}
}

// Dur builds a duration attribute.
func Dur(key string, d time.Duration) Attr { return Attr{Key: key, kind: attrDur, num: int64(d)} }

// attrRec is an attribute as a span stores it: an Attr whose bytes, if it
// had any, now lie in the trace's value bytes at num>>32, num&0xffffffff long.
type attrRec struct {
	key  string
	str  string
	num  int64
	kind attrKind
}

// appendValue spells the attribute's value out, as reading a trace shows it.
func (a attrRec) appendValue(dst, vals []byte) []byte {
	switch a.kind {
	case attrInt:
		return strconv.AppendInt(dst, a.num, 10)
	case attrFloat:
		return strconv.AppendFloat(dst, math.Float64frombits(uint64(a.num)), 'g', -1, 64)
	case attrDur:
		return append(dst, time.Duration(a.num).String()...)
	case attrBytes:
		off, n := a.num>>32, a.num&0xffffffff
		return append(dst, vals[off:off+n]...)
	}
	return append(dst, a.str...)
}

// Span is a handle on one timed operation inside a trace: the trace and the
// span's index in it, a value to pass and copy freely. The zero Span is
// valid and every method on it is a no-op, so instrumented code never
// branches on whether tracing is active; a Span whose trace has finished is
// a no-op in the same way.
type Span struct {
	t  *Trace
	id int32
}

// spanRec is a span as its trace stores it.
type spanRec struct {
	parent int32 // -1 for the root
	ended  bool
	name   string
	at     time.Duration // when it started, from the trace's start
	dur    time.Duration
	attrs  []attrRec
	errMsg string
}

// storage is what a trace records into: the spans, their attributes, and
// the bytes of the values that were copied in. It is the part of a trace
// that outlives it: when a TraceStore evicts a trace it takes the storage
// back, emptied but with its capacity, for the next trace it starts, so a
// store that is full records without allocating per span.
//
// The first spanChunk spans live in one slice, which is what is recycled;
// a trace that records more (a cold empirical measurement: a span per
// candidate, build, attempt, warm-up and timed sample) puts the rest in
// chunks of its own, which go to the collector with it instead of staying
// pinned under every later three-span hit. A 16-item batch records 49
// spans. Neither part is ever copied to grow, so a long
// trace costs its spans and not twice that.
//
// A span's attributes are a run of the slab, the chunk of attribute records
// the trace is filling, so a trace allocates its attributes a chunk at a
// time and not a slice per span. The slab starts small and doubles up to
// spanChunk records, so a three-span trace takes a few hundred bytes; when
// it is full the next chunk starts and the full one stays with the spans
// that point into it. The slab sits behind a pointer, which keeps the
// header every trace allocates as small as it was with a slice per span.
type storage struct {
	spans []spanRec   // spans 0 .. spanChunk-1
	more  [][]spanRec // then spanChunk at a time
	n     int         // spans recorded
	vals  []byte
	slab  *slab // made with the first attribute, kept by reset
}

// slab is the chunk of attribute records a trace is filling, and how many
// records the trace put in the chunks it filled before.
type slab struct {
	recs  []attrRec
	spilt int
}

const spanChunk = 64

// minSlab is the first slab's size; keptSlab bounds the slab reset keeps.
const (
	minSlab  = 8
	keptSlab = 4 * spanChunk
)

// at returns span id's record.
func (st *storage) at(id int) *spanRec {
	if id < spanChunk {
		return &st.spans[id]
	}
	id -= spanChunk
	return &st.more[id/spanChunk][id%spanChunk]
}

// reset empties the storage for its next trace, dropping every reference
// the old spans held. No span keeps an attribute run: the slab is rewound
// for the next trace to cut its runs from. A trace that filled more than one
// chunk leaves a slab as large as all of them, up to keptSlab records, so
// the next trace of its shape fills one.
func (st *storage) reset() {
	clear(st.spans)
	if s := st.slab; s != nil {
		clear(s.recs)
		switch total := s.spilt + len(s.recs); {
		case total > keptSlab:
			s.recs = nil
		case s.spilt > 0:
			s.recs = make([]attrRec, 0, total)
		default:
			s.recs = s.recs[:0]
		}
		s.spilt = 0
	}
	st.spans, st.more, st.n, st.vals = st.spans[:0], nil, 0, st.vals[:0]
}

// push appends a span and returns its index.
func (st *storage) push(parent int32, name string, at time.Duration, attrs []Attr) int32 {
	id := st.n
	st.n++
	switch {
	case id < spanChunk && id < cap(st.spans):
		st.spans = st.spans[:id+1]
	case id < spanChunk:
		st.spans = append(st.spans, spanRec{})
	default:
		if (id-spanChunk)%spanChunk == 0 {
			st.more = append(st.more, make([]spanRec, 0, spanChunk))
		}
		last := &st.more[len(st.more)-1]
		*last = append(*last, spanRec{})
	}
	sp := st.at(id)
	sp.parent, sp.name, sp.at = parent, name, at
	st.annotate(sp, attrs)
	return int32(id)
}

// annotate stores attrs on sp, copying in the values given as bytes. A run
// that ends the slab grows in place; any other moves to the slab's end
// first, leaving a dead copy behind.
func (st *storage) annotate(sp *spanRec, attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	if st.slab == nil {
		st.slab = new(slab)
	}
	s := st.slab
	n, room := len(sp.attrs), cap(s.recs)-len(s.recs)
	ends := n > 0 && len(s.recs) > 0 && &sp.attrs[n-1] == &s.recs[len(s.recs)-1]
	if n > 0 && !ends || room < len(attrs) {
		if room < n+len(attrs) {
			s.spilt += len(s.recs)
			s.recs = make([]attrRec, 0, max(n+len(attrs), min(2*cap(s.recs), spanChunk), minSlab))
		}
		s.recs = append(s.recs, sp.attrs...)
	}
	for _, a := range attrs {
		rec := attrRec{key: a.Key, str: a.str, num: a.num, kind: a.kind}
		if a.kind == attrBytes {
			rec.num = int64(len(st.vals))<<32 | int64(len(a.bytes))
			st.vals = append(st.vals, a.bytes...)
		}
		s.recs = append(s.recs, rec)
	}
	end := len(s.recs)
	sp.attrs = s.recs[end-n-len(attrs) : end : end] // capped: a run never grows into the next
}

// Trace is one decision's span tree. It is safe for concurrent use: spans
// may start and end from any goroutine participating in the decision.
//
// A Trace is recorded by whoever started it until Finish, which freezes
// it, and is then handed to a TraceStore, which owns it from there and on
// eviction takes its storage away. The Trace itself is never reused — it
// is the one object per decision left to the collector — so a context, a
// Span or a *Trace that outlives the request still points at the trace it
// was made for, finds it finished, and does nothing.
type Trace struct {
	ID string

	mu           sync.Mutex
	st           storage
	finished     bool  // Finish ran: nothing records any more
	released     bool  // a store took the storage back: nothing to read either
	dropped      int32 // beside the flags: a trace header is allocated per request
	start        time.Time
	node         string // cluster node that recorded this fragment ("" = standalone)
	remoteParent string // wire id of the remote span that caused this fragment
	root         spanCtx
}

// spanCtx is the context a span rides: ctx.Value(traceCtxKey{}) finds the
// innermost one. The root's is part of its Trace; a child's is allocated
// when the child is started with StartSpan (StartLeaf starts one without).
type spanCtx struct {
	context.Context
	span Span
}

func (c *spanCtx) Value(key any) any {
	if _, ok := key.(traceCtxKey); ok {
		return c
	}
	return c.Context.Value(key)
}

type traceCtxKey struct{}

// tidPool holds per-use PCG generators, each seeded once from crypto/rand.
// A pooled generator costs two atomic-ish pool ops plus one 64-bit step per
// id — versus a syscall-backed crypto/rand read per decision on the old hot
// path — while the crypto seed keeps ids process-unique across a ring.
var tidPool = sync.Pool{New: func() any {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; seed from the
		// clock rather than panicking on a telemetry path.
		now := uint64(time.Now().UnixNano())
		return mrand.NewPCG(now, now^0x9e3779b97f4a7c15)
	}
	return mrand.NewPCG(binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:]))
}}

// NewTraceID returns a 16-hex-character trace id — short enough for log
// lines, unique enough for a bounded ring buffer and for correlating
// fragments across ring nodes.
func NewTraceID() string {
	g := tidPool.Get().(*mrand.PCG)
	v := g.Uint64()
	tidPool.Put(g)
	return hex16(v)
}

func newTraceID() string { return NewTraceID() }

// hex16 renders v as exactly 16 lowercase hex characters.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ValidTraceID reports whether s is a well-formed wire id: exactly 16
// lowercase hex characters. Both trace ids and span wire ids use this shape.
func ValidTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < 16; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanWireID derives the 16-hex wire id of span id within a trace fragment
// recorded on node. It is deterministic — fnv64a over (trace, node, id) —
// so the assembler can recompute every fragment's wire ids from its
// snapshot alone and no per-span id needs to cross the wire. Every peer hop
// of a traced request computes one, so the hash is inlined: the id string is
// its only allocation.
func SpanWireID(traceID, node string, id int) string {
	var num [20]byte
	h := fnv64a(fnvOffset64, traceID)
	h = fnv64a(h, "|")
	h = fnv64a(h, node)
	h = fnv64a(h, "|")
	return hex16(fnv64a(h, strconv.AppendInt(num[:0], int64(id), 10)))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a folds s into the running FNV-1a hash h, as hash/fnv's New64a does.
func fnv64a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// NewTrace starts a trace with a root span of the given name and returns
// the derived context (carrying the root span), the trace, and the root
// span. Finish the root with End and hand the trace to a TraceStore.
// (A daemon that keeps a store starts its traces there: TraceStore.NewTrace
// records into storage the store got back from a trace it evicted.)
func NewTrace(ctx context.Context, name string, attrs ...Attr) (context.Context, *Trace, Span) {
	return startTrace(ctx, storage{}, newTraceID(), "", "", name, attrs)
}

// startTrace is the one place a Trace is made: a fresh header over st,
// which is empty storage — new, or recycled by a store.
func startTrace(ctx context.Context, st storage, id, remoteParent, node, name string, attrs []Attr) (context.Context, *Trace, Span) {
	t := &Trace{ID: id, st: st, start: time.Now(), remoteParent: remoteParent}
	t.st.push(-1, name, 0, attrs)
	t.root = spanCtx{Context: ctx, span: Span{t: t}}
	t.SetNode(node)
	return &t.root, t, t.root.span
}

// SetNode records which cluster node this trace belongs to and annotates
// the root span with it. Call once, right after NewTrace; remote fragments
// get their node from TraceStore.NewRemoteTrace instead.
func (t *Trace) SetNode(node string) {
	if t == nil || node == "" {
		return
	}
	t.mu.Lock()
	if t.node == "" && !t.finished {
		t.node = node
		t.st.annotate(t.st.at(0), []Attr{String("node", node)})
	}
	t.mu.Unlock()
}

// contextSpan returns the span riding ctx, or the zero Span.
func contextSpan(ctx context.Context) Span {
	if c, ok := ctx.Value(traceCtxKey{}).(*spanCtx); ok {
		return c.span
	}
	return Span{}
}

// ContextTrace returns the trace riding ctx, or nil.
func ContextTrace(ctx context.Context) *Trace { return contextSpan(ctx).t }

// ContextTraceParent returns the propagation header values for the span
// riding ctx: the trace id and the current span's wire id. ok is false on
// a trace-free context.
func ContextTraceParent(ctx context.Context) (traceID, spanID string, ok bool) {
	s := contextSpan(ctx)
	if s.t == nil {
		return "", "", false
	}
	s.t.mu.Lock()
	node := s.t.node
	s.t.mu.Unlock()
	return s.t.ID, SpanWireID(s.t.ID, node, int(s.id)), true
}

// StartSpan opens a child span under the span riding ctx and returns the
// derived context and the span. On a trace-free context (or a trace at its
// span cap, or one that has finished) it returns ctx unchanged and the
// zero Span — one context lookup, no allocation — so callers
// always write
//
//	ctx, sp := telemetry.StartSpan(ctx, "candidate.build", telemetry.String("format", f.String()))
//	defer sp.End()
//
// The derived context is the one allocation a span costs; a span that will
// have no children of its own starts with StartLeaf and costs none.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	s := StartLeaf(ctx, name, attrs...)
	if s.t == nil {
		return ctx, s
	}
	return &spanCtx{Context: ctx, span: s}, s
}

// StartLeaf opens a child span under the span riding ctx, as StartSpan
// does, without deriving a context for children of its own.
func StartLeaf(ctx context.Context, name string, attrs ...Attr) Span {
	parent := contextSpan(ctx)
	t := parent.t
	if t == nil {
		return Span{}
	}
	at := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return Span{}
	}
	if t.st.n >= DefaultMaxSpans {
		t.dropped++
		return Span{}
	}
	return Span{t: t, id: t.st.push(parent.id, name, at, attrs)}
}

// rec returns the span's record for a caller holding the trace's lock, or
// nil once the trace has finished.
func (s Span) rec() *spanRec {
	if s.t.finished {
		return nil
	}
	return s.t.st.at(int(s.id))
}

// End closes the span, fixing its duration. Safe on the zero Span and
// idempotent.
func (s Span) End() { s.EndErr(nil) }

// EndErr closes the span recording err (nil err is a plain End).
func (s Span) EndErr(err error) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if sp := s.rec(); sp != nil {
		if err != nil {
			sp.errMsg = err.Error()
		}
		if !sp.ended {
			sp.ended, sp.dur = true, time.Since(s.t.start)-sp.at
		}
	}
	s.t.mu.Unlock()
}

// Annotate appends attributes to the span. Safe on the zero Span.
func (s Span) Annotate(attrs ...Attr) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	if sp := s.rec(); sp != nil {
		s.t.st.annotate(sp, attrs)
	}
	s.t.mu.Unlock()
}

// Finish marks the trace complete, ending any still-open spans (including
// the root) at the current time. A finished trace is frozen: a Span or a
// context of it that is used afterwards does nothing.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := 0; i < t.st.n; i++ {
		if sp := t.st.at(i); !sp.ended {
			sp.ended, sp.dur = true, time.Since(t.start)-sp.at
		}
	}
	t.finished = true
	t.mu.Unlock()
}

// release finishes the trace and takes its storage away, emptied for reuse.
// Only the store that owns the trace calls it, once: on the way out of its
// map, which a released trace cannot re-enter (Put).
func (t *Trace) release() storage {
	t.Finish()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	t.st, t.released = storage{}, true
	st.reset()
	return st
}

// isReleased reports whether a store has taken the trace's storage back.
func (t *Trace) isReleased() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.released
}

// SpanJSON is the wire form of one span. Offsets and durations are
// microseconds: fine enough for kernel reps, small enough to read.
type SpanJSON struct {
	ID       int      `json:"id"`
	Parent   int      `json:"parent"` // -1 for the root
	Name     string   `json:"name"`
	Node     string   `json:"node,omitempty"` // set on assembled cross-node trees
	StartUs  int64    `json:"start_us"`       // offset from trace start
	DurUs    int64    `json:"dur_us"`
	Error    string   `json:"error,omitempty"`
	AttrList []string `json:"attrs,omitempty"` // "key=value" pairs, insertion order
}

// TraceJSON is the wire form of a trace: the span tree flattened in id
// order (in single-fragment snapshots parents always precede children;
// assembled cross-node trees only guarantee the root is span 0).
type TraceJSON struct {
	TraceID string     `json:"trace_id"`
	Start   time.Time  `json:"start"`
	DurUs   int64      `json:"dur_us"` // root span duration
	Spans   []SpanJSON `json:"spans"`
	Dropped int        `json:"dropped_spans,omitempty"`
	// Node and RemoteParent describe a fragment of a distributed trace:
	// the node that recorded it and the wire id (SpanWireID) of the remote
	// span that caused it. Both empty on standalone / origin traces.
	Node         string `json:"node,omitempty"`
	RemoteParent string `json:"remote_parent,omitempty"`
	// Incomplete marks an assembled tree where at least one ring peer
	// could not be consulted (down, hung past its timeout, or errored).
	Incomplete bool `json:"incomplete,omitempty"`
}

// Snapshot renders the trace's current state as its wire form: a copy,
// sharing nothing with the trace. A trace whose store has evicted it
// snapshots as its id and no spans.
func (t *Trace) Snapshot() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceJSON{TraceID: t.ID, Start: t.start, Dropped: int(t.dropped), Node: t.node, RemoteParent: t.remoteParent}
	if t.st.n == 0 {
		return out
	}
	out.Spans = make([]SpanJSON, t.st.n)
	var kv []byte
	for i := range out.Spans {
		s := t.st.at(i)
		sj := SpanJSON{
			ID:      i,
			Parent:  int(s.parent),
			Name:    s.name,
			StartUs: s.at.Microseconds(),
			DurUs:   s.dur.Microseconds(),
			Error:   s.errMsg,
		}
		if len(s.attrs) > 0 {
			sj.AttrList = make([]string, len(s.attrs))
			for k, a := range s.attrs {
				kv = append(append(kv[:0], a.key...), '=')
				sj.AttrList[k] = string(a.appendValue(kv, t.st.vals))
			}
		}
		out.Spans[i] = sj
	}
	out.DurUs = out.Spans[0].DurUs
	return out
}

// Tree renders the trace as an indented human-readable span tree:
//
//	schedule 2.13ms policy=hybrid
//	├─ history.lookup 3µs hit=false
//	├─ candidate CSR
//	│  ├─ build 120µs
//	│  └─ measure 800µs reps=6
//	└─ decide 1µs chosen=CSR
func (t *Trace) Tree() string { return t.Snapshot().Tree() }

// Tree renders a single-fragment snapshot as Trace.Tree renders its trace.
func (snap TraceJSON) Tree() string {
	children := make(map[int][]int)
	for _, s := range snap.Spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, c := range children {
		sort.Ints(c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", snap.TraceID)
	if len(snap.Spans) == 0 {
		return b.String()
	}
	var walk func(id int, prefix string, last bool)
	walk = func(id int, prefix string, last bool) {
		s := snap.Spans[id]
		connector, childPrefix := "├─ ", prefix+"│  "
		if last {
			connector, childPrefix = "└─ ", prefix+"   "
		}
		if s.Parent < 0 {
			connector, childPrefix = "", ""
		}
		fmt.Fprintf(&b, "%s%s%s %s", prefix, connector, s.Name,
			time.Duration(s.DurUs)*time.Microsecond)
		for _, a := range s.AttrList {
			b.WriteByte(' ')
			b.WriteString(a)
		}
		if s.Error != "" {
			fmt.Fprintf(&b, " error=%q", s.Error)
		}
		b.WriteByte('\n')
		kids := children[id]
		for i, k := range kids {
			walk(k, childPrefix, i == len(kids)-1)
		}
	}
	walk(0, "", true)
	if snap.Dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped over the %d-span cap)\n", snap.Dropped, DefaultMaxSpans)
	}
	return b.String()
}
