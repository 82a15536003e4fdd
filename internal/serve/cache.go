package serve

import (
	"container/list"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// Cached is what a workload's decision cache keeps per shape class: the
// scheduler's verdict — the winning candidate of type C, the ladder rung
// that answered, and the measurement evidence behind it — with the evidence
// rendered once as the workload's reply rows R. Matrices are never cached —
// they belong to one request's data — and estimates are re-derived from the
// request's own features (the model is pure and cheap).
type Cached[C candidate, R evidenceRow[C, R]] struct {
	core.Verdict[C]
	// Degraded marks a decision produced without measurement because the
	// measurement path was failing (circuit breaker open or a measurement
	// error absorbed). Degraded entries are cached only for the cache's
	// DegradedTTL, so they are re-measured once the path recovers instead
	// of masquerading as authoritative forever.
	Degraded bool

	// ev is Measured in reply form, rendered on first use. An entry — its
	// Measured map above all — is immutable once it is in a cache.
	ev evidence[R]
}

// CachedDecision is the SMSV workload's cache entry: a joint
// (format × chunk × variant) candidate.
type CachedDecision = Cached[sparse.Candidate, MeasurementJSON]

// CachedPairDecision is the SpGEMM workload's cache entry: a dataflow
// candidate for one pairwise shape class, with its output-size evidence.
type CachedPairDecision = Cached[spgemm.Candidate, PairMeasurementJSON]

// IsDegraded implements Degradable.
func (e *Cached[C, R]) IsDegraded() bool { return e.Degraded }

// evidence returns the entry's measurements as reply rows and as the JSON
// array of those rows.
func (e *Cached[C, R]) evidence() ([]R, []byte) {
	return e.ev.render(func() []R { return encodeMeasured[C, R](e.Measured) })
}

// wire renders the entry as its owner answers a lookup leg with it; gossip
// sends the same render with the owner-only fields cleared.
func (e *Cached[C, R]) wire() decisionWire {
	_, measured := e.evidence()
	return decisionWire{Candidate: e.Candidate.String(), Source: e.Rung.String(), Confidence: e.Confidence,
		EstimatedNNZ: e.EstimatedNNZ, OutputNNZ: e.OutputNNZ, Degraded: e.Degraded, Measured: measured}
}

// fromWire rebuilds one of the workload's entries from its wire form: a
// gossiped decision payload, or the owner's answer to a lookup leg. A
// candidate or a source word this build cannot read rejects the entry.
func (w *workload[In, C, R]) fromWire(data []byte) (*Cached[C, R], error) {
	var dw decisionWire
	if err := json.Unmarshal(data, &dw); err != nil {
		return nil, err
	}
	c, err := w.parse(dw.Candidate)
	if err != nil {
		return nil, err
	}
	rung, err := core.ParseRung(dw.Source)
	if err != nil {
		return nil, err
	}
	e := &Cached[C, R]{Verdict: core.Verdict[C]{Candidate: c, Rung: rung, Confidence: dw.Confidence,
		EstimatedNNZ: dw.EstimatedNNZ, OutputNNZ: dw.OutputNNZ}, Degraded: dw.Degraded}
	e.ev.seed(dw.Measured)
	return e, nil
}

// Degradable is what the cache needs to know about a value: degraded
// entries get a short TTL instead of living until LRU pressure.
type Degradable interface {
	IsDegraded() bool
}

// keyVersion prefixes every decision-cache key. It was bumped to v2 when
// cached decisions started carrying joint (format × chunk × variant)
// candidates: a key schema change means pre-joint keys can never alias a
// joint decision, even if cache state is ever persisted or handed across a
// live upgrade.
const keyVersion = "v2"

// pairKeyVersion prefixes every SpGEMM pair key. The pair cache is a
// separate instance, but the prefix still differs from keyVersion so pair
// keys can never alias SMSV keys in replication streams or persisted state,
// and so ring routing (which hashes raw key bytes) spreads the two key
// families independently.
const pairKeyVersion = "p1"

// quantFeatures appends the nine quantized Table IV parameters of f to dst.
// 8 buckets per natural-log unit ≈ 13% relative resolution: sampling noise
// between near-identical datasets lands in one shape class while
// structurally different matrices separate.
func quantFeatures(dst []byte, f dataset.Features) []byte {
	q := func(x float64) int64 {
		return int64(math.Round(math.Log1p(math.Max(x, 0)) * 8))
	}
	for i, v := range [...]int64{
		q(float64(f.M)), q(float64(f.N)), q(float64(f.NNZ)),
		q(float64(f.Ndig)), q(f.Dnnz), q(float64(f.Mdim)),
		q(f.Adim), q(f.Vdim), int64(math.Round(f.Density * 1000)),
	} {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return dst
}

// AppendKey appends the decision-cache key for f to dst and returns it —
// allocation-free when dst has capacity, so the batched scheduling path can
// key N lookups from one pooled buffer. Exact-key hits serve from the
// cache; near misses beyond the quantization grid still get the History
// radius lookup inside the scheduler.
func AppendKey(dst []byte, f dataset.Features, policy string, topK int) []byte {
	return quantFeatures(appendKeyPrefix(dst, keyVersion, policy, topK), f)
}

// appendKeyPrefix appends "<version>|<policy>/<topK>|".
func appendKeyPrefix(dst []byte, version, policy string, topK int) []byte {
	dst = append(dst, version...)
	dst = append(dst, '|')
	dst = append(dst, policy...)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(topK), 10)
	return append(dst, '|')
}

// Key derives the decision-cache key as a string; single-request paths use
// it directly, batch paths build the same bytes with AppendKey.
func Key(f dataset.Features, policy string, topK int) string {
	return string(AppendKey(nil, f, policy, topK))
}

// AppendPairKey appends the SpGEMM pair-cache key for (fa, fb) to dst: the
// pair schema version, the policy, and both operands' quantized shape
// classes in order. Ring routing hashes these same bytes, so a pair's owner
// is stable across the cluster just like a single matrix's.
func AppendPairKey(dst []byte, fa, fb dataset.Features, policy string, topK int) []byte {
	dst = quantFeatures(appendKeyPrefix(dst, pairKeyVersion, policy, topK), fa)
	dst = append(dst, '|')
	return quantFeatures(dst, fb)
}

// PairKey derives the SpGEMM pair-cache key as a string.
func PairKey(fa, fb dataset.Features, policy string, topK int) string {
	return string(AppendPairKey(nil, fa, fb, policy, topK))
}

// call is one in-flight singleflight computation.
type call[V Degradable] struct {
	done chan struct{}
	val  V
	err  error
}

// shard is one lock domain of the cache: an LRU map plus the in-flight
// calls keyed into it.
type shard[V Degradable] struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*call[V]
}

type lruEntry[V Degradable] struct {
	key string
	val V
	// expires is the entry's eviction deadline; zero means authoritative,
	// cached until LRU pressure. Only degraded decisions get a deadline.
	expires time.Time
}

// Cache is a sharded, profile-keyed decision cache with singleflight
// deduplication: concurrent Do calls for one key run the compute function
// exactly once and share its result. Sharding keeps lock contention local
// to a shape class's hash bucket under concurrent serving load; each shard
// holds at most capacity entries and evicts least-recently-used decisions.
// The value type is generic over Degradable so the SMSV and SpGEMM caches
// share one implementation without a common decision struct.
type Cache[V Degradable] struct {
	shards      []*shard[V]
	capacity    int
	degradedTTL time.Duration
	now         func() time.Time // injectable for TTL tests

	hits      atomic.Int64
	misses    atomic.Int64
	dedups    atomic.Int64
	evictions atomic.Int64
	expired   atomic.Int64
}

// DefaultCacheShards balances lock spread against footprint for a
// single-host daemon.
const DefaultCacheShards = 16

// DefaultDegradedTTL is how long a degraded (unmeasured) decision may serve
// from the cache before it is re-computed — short, so recovery re-measures
// promptly.
const DefaultDegradedTTL = 5 * time.Second

// NewCache creates a cache with the given shard count (<=0 means
// DefaultCacheShards) and per-shard entry capacity (<=0 means 256).
func NewCache[V Degradable](shards, capacity int) *Cache[V] {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	if capacity <= 0 {
		capacity = 256
	}
	c := &Cache[V]{
		shards:      make([]*shard[V], shards),
		capacity:    capacity,
		degradedTTL: DefaultDegradedTTL,
		now:         time.Now,
	}
	for i := range c.shards {
		c.shards[i] = &shard[V]{
			entries:  make(map[string]*list.Element),
			order:    list.New(),
			inflight: make(map[string]*call[V]),
		}
	}
	return c
}

// fnvSum32 is FNV-1a inlined over either key form, so hashing never
// allocates a hasher or copies a byte-slice key to a string.
func fnvSum32[T ~string | ~[]byte](key T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return c.shards[fnvSum32(key)%uint32(len(c.shards))]
}

// Get is the batch path's allocation-free hit check: the byte-slice key is
// hashed and looked up without a string conversion (the compiler elides the
// map-index conversion). Anything but a live cached entry — a miss, an
// expired degraded entry, an in-flight computation — returns false, and the
// caller takes the Do slow path, which re-checks under the same lock and
// handles expiry, singleflight, and counters as usual.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	var zero V
	sh := c.shards[fnvSum32(key)%uint32(len(c.shards))]
	sh.mu.Lock()
	el, ok := sh.entries[string(key)]
	if !ok {
		sh.mu.Unlock()
		return zero, false
	}
	e := el.Value.(*lruEntry[V])
	if !e.expires.IsZero() && !c.now().Before(e.expires) {
		sh.mu.Unlock()
		return zero, false
	}
	sh.order.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return e.val, true
}

// Peek reports whether key has a live entry, without counting a hit or
// touching the LRU order. The cluster router uses it to keep shape classes
// that replication already landed here local instead of forwarding them.
func (c *Cache[V]) Peek(key []byte) bool {
	sh := c.shards[fnvSum32(key)%uint32(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[string(key)]
	if !ok {
		return false
	}
	e := el.Value.(*lruEntry[V])
	return e.expires.IsZero() || c.now().Before(e.expires)
}

// Put inserts a decision directly, bypassing singleflight — the replication
// receiver's path, where the value was computed by a peer. An in-flight
// local computation for the same key is left alone: its result overwrites
// this one, which is the fresher of the two.
func (c *Cache[V]) Put(key string, val V) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	c.insertLocked(sh, key, val)
	sh.mu.Unlock()
}

// Do returns the decision for key, computing it with fn on a miss. The
// outcome reports how the value was obtained: "hit" (cached), "dedup"
// (another goroutine was already computing it; this call waited and shared
// the result), or "miss" (this call ran fn). Errors are not cached, so a
// failed computation retries on the next request; if the computing leader
// fails — including by cancellation — every deduplicated waiter receives
// the same error.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, outcome string, err error) {
	fault.Disrupt("serve.cache")
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		if e.expires.IsZero() || c.now().Before(e.expires) {
			sh.order.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			return e.val, "hit", nil
		}
		// A degraded entry past its TTL: drop it and re-compute, so the
		// shape class is re-measured once the measurement path recovers.
		sh.order.Remove(el)
		delete(sh.entries, key)
		c.expired.Add(1)
	}
	if cl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.dedups.Add(1)
		<-cl.done
		return cl.val, "dedup", cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	sh.inflight[key] = cl
	sh.mu.Unlock()

	c.misses.Add(1)
	cl.val, cl.err = fn()

	sh.mu.Lock()
	delete(sh.inflight, key)
	if cl.err == nil {
		c.insertLocked(sh, key, cl.val)
	}
	sh.mu.Unlock()
	close(cl.done)
	return cl.val, "miss", cl.err
}

// insertLocked adds key→val to the shard, evicting from the LRU tail when
// the shard is at capacity. Degraded values get the short TTL so they are
// never cached as authoritative. Caller holds sh.mu.
func (c *Cache[V]) insertLocked(sh *shard[V], key string, val V) {
	var expires time.Time
	if val.IsDegraded() {
		expires = c.now().Add(c.degradedTTL)
	}
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*lruEntry[V])
		e.val, e.expires = val, expires
		sh.order.MoveToFront(el)
		return
	}
	for sh.order.Len() >= c.capacity {
		tail := sh.order.Back()
		sh.order.Remove(tail)
		delete(sh.entries, tail.Value.(*lruEntry[V]).key)
		c.evictions.Add(1)
	}
	sh.entries[key] = sh.order.PushFront(&lruEntry[V]{key: key, val: val, expires: expires})
}

// Inflight reports how many singleflight computations are currently
// running.
func (c *Cache[V]) Inflight() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.inflight)
		sh.mu.Unlock()
	}
	return n
}
