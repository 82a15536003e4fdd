package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ReplicatePath is the endpoint gossip batches are POSTed to; the serve
// layer mounts the handler.
const ReplicatePath = "/v1/cluster/replicate"

// ModelPath is the endpoint retrained predictor models are pushed to.
const ModelPath = "/v1/cluster/model"

// LookupPath is the endpoint a forward's first leg asks a shape class's
// owner for its cached decision on (Peers.Forward, then Peers.Continue).
const LookupPath = "/v1/cluster/lookup"

// Replication entry kinds. The payloads are opaque to this package; the
// serve layer defines the wire structs for every kind (versioned with the
// v2 decision/history key schema, and the p1 pair key schema for the
// spgemm kinds).
const (
	KindDecision    = "decision"
	KindHistory     = "history"
	KindSpGEMM      = "spgemm-decision"
	KindPairHistory = "spgemm-history"
)

// ReplEntry is one replicated record: a decision-cache entry (Key is the
// v2 quantized shape-class key) or a tuning-history record (Key empty, the
// features ride the payload).
type ReplEntry struct {
	Kind    string          `json:"kind"`
	Key     string          `json:"key,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// ReplicatePayload is the gossip wire envelope: the sender's node ID and a
// batch of entries for the receiver to apply.
type ReplicatePayload struct {
	From    string      `json:"from"`
	Entries []ReplEntry `json:"entries"`
}

// ReplicateResponse is the receiver's acknowledgement.
type ReplicateResponse struct {
	Applied int `json:"applied"`
	Skipped int `json:"skipped"`
}

// Replicator queues decision and history records and gossips them in
// batches to the ring successor of the local node. Everything is
// best-effort and bounded: Enqueue never blocks the serving hot path (a
// full queue drops the entry and counts it), flushes are batched to
// amortize the HTTP round trip, and send failures drop the batch — the
// authoritative copy lives on the owner, replication only shortens the
// successor's cold start after a failover.
type Replicator struct {
	ring     *Ring
	client   *Client
	self     string
	queue    chan ReplEntry
	batch    int
	interval time.Duration

	enqueued atomic.Int64
	dropped  atomic.Int64
	sent     atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// traceSink receives the per-flush gossip trace when set (atomically,
	// since the serve layer wires it after the loop is already running).
	traceSink atomic.Pointer[traceSinkBox]
}

// traceSinkBox wraps the sink func so it can live in an atomic.Pointer.
type traceSinkBox struct{ fn func(*telemetry.Trace) }

// setTraceSink installs (or clears, with nil) the gossip trace sink.
func (r *Replicator) setTraceSink(fn func(*telemetry.Trace)) {
	if fn == nil {
		r.traceSink.Store(nil)
		return
	}
	r.traceSink.Store(&traceSinkBox{fn: fn})
}

// ReplicatorOptions tune a Replicator; zeros take defaults.
type ReplicatorOptions struct {
	// QueueSize bounds the pending-entry queue. 0 = 4096.
	QueueSize int
	// BatchSize is the flush batch cap. 0 = 128.
	BatchSize int
	// Interval is the flush cadence when the batch does not fill first.
	// 0 = 250ms.
	Interval time.Duration
}

// NewReplicator starts the background gossip loop. Call Stop to flush and
// terminate it.
func NewReplicator(ring *Ring, client *Client, self string, opts ReplicatorOptions) *Replicator {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 4096
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 128
	}
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	r := &Replicator{
		ring: ring, client: client, self: self,
		queue:    make(chan ReplEntry, opts.QueueSize),
		batch:    opts.BatchSize,
		interval: opts.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.loop()
	return r
}

// Enqueue queues one entry for gossip. It never blocks: when the queue is
// full the entry is dropped and counted, keeping replication strictly off
// the serving hot path.
func (r *Replicator) Enqueue(e ReplEntry) bool {
	select {
	case r.queue <- e:
		r.enqueued.Add(1)
		return true
	default:
		r.dropped.Add(1)
		return false
	}
}

// loop drains the queue into batches and flushes on size or cadence.
func (r *Replicator) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	pending := make([]ReplEntry, 0, r.batch)
	for {
		select {
		case e := <-r.queue:
			pending = append(pending, e)
			if len(pending) >= r.batch {
				r.flush(&pending)
			}
		case <-ticker.C:
			r.flush(&pending)
		case <-r.stop:
			// Final best-effort flush of whatever is queued, then exit.
			for {
				select {
				case e := <-r.queue:
					pending = append(pending, e)
					if len(pending) >= r.batch {
						r.flush(&pending)
					}
				default:
					r.flush(&pending)
					return
				}
			}
		}
	}
}

// flush sends the pending batch to the ring successor and resets it. A
// single-node ring (no successor) silently discards — there is nobody to
// replicate to. With a trace sink wired, each flush records a
// replicate.flush trace whose propagated context makes the successor's
// apply a fragment of the same trace.
func (r *Replicator) flush(pending *[]ReplEntry) {
	if len(*pending) == 0 {
		return
	}
	batch := *pending
	*pending = (*pending)[:0]
	succ, ok := r.ring.Successor(r.self)
	if !ok {
		return
	}
	body, err := json.Marshal(ReplicatePayload{From: r.self, Entries: batch})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.interval*4+time.Second)
	defer cancel()
	var tr *telemetry.Trace
	var root telemetry.Span
	sink := r.traceSink.Load()
	if sink != nil {
		ctx, tr, root = telemetry.NewTrace(ctx, "replicate.flush",
			telemetry.Int("entries", len(batch)),
			telemetry.String("successor", succ.ID))
		tr.SetNode(r.self)
	}
	status, _, err := r.client.Post(ctx, succ.Addr, ReplicatePath, r.self, body)
	if err == nil && status >= 300 {
		err = fmt.Errorf("cluster: gossip flush returned %d", status)
	}
	if sink != nil {
		root.EndErr(err)
		tr.Finish()
		sink.fn(tr)
	}
	if err != nil {
		return
	}
	r.sent.Add(int64(len(batch)))
}

// Stop flushes the queue best-effort and terminates the gossip loop. Safe
// to call more than once.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// ReplicatorStats is a point-in-time counter snapshot.
type ReplicatorStats struct {
	Enqueued, Dropped, Sent int64
}

// Stats snapshots the replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	return ReplicatorStats{
		Enqueued: r.enqueued.Load(),
		Dropped:  r.dropped.Load(),
		Sent:     r.sent.Load(),
	}
}
