package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Peers is the node-local cluster facade the serve layer talks to: the
// ring, the peer client, and the replicator bundled with the local node's
// identity, plus the forward/replication counters /metrics exposes.
type Peers struct {
	self   Member
	ring   *Ring
	client *Client
	repl   *Replicator

	forwards         atomic.Int64 // requests forwarded to their ring owner
	forwardErrors    atomic.Int64 // forwards that failed (transport, 5xx, breaker open)
	modelBroadcasts  atomic.Int64 // model pushes fanned out to peers
	modelBroadcastNG atomic.Int64 // model fan-out sends that failed
}

// Options configure NewPeers; zeros take defaults.
type Options struct {
	// VirtualNodes per member on the ring. 0 = DefaultVirtualNodes.
	VirtualNodes int
	// Client options for the peer HTTP client.
	Client ClientOptions
	// Replication tunes the gossip queue; Disabled turns replication off
	// (the ring still routes and distributes models).
	Replication        ReplicatorOptions
	DisableReplication bool
}

// NewPeers builds the cluster runtime for the node selfID over members.
// selfID must be one of the members; every node in the cluster must be
// started with the same member list for ownership views to agree.
func NewPeers(selfID string, members []Member, opts Options) (*Peers, error) {
	var self *Member
	for i := range members {
		if members[i].ID == selfID {
			self = &members[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: node id %q not in peer list", selfID)
	}
	p := &Peers{
		self:   *self,
		ring:   NewRing(opts.VirtualNodes, members...),
		client: NewClient(opts.Client),
	}
	if !opts.DisableReplication {
		p.repl = NewReplicator(p.ring, p.client, selfID, opts.Replication)
	}
	return p, nil
}

// Self returns the local node's identity.
func (p *Peers) Self() Member { return p.self }

// Ring exposes the membership ring (tests and admin endpoints).
func (p *Peers) Ring() *Ring { return p.ring }

// Route returns the remote owner of key, or ok=false when the local node
// owns it (or the ring is empty) and the request should be decided here.
func (p *Peers) Route(key []byte) (Member, bool) {
	m, ok := p.ring.Owner(key)
	if !ok || m.ID == p.self.ID {
		return Member{}, false
	}
	return m, true
}

// Forward posts body to the owner's endpoint with the forwarded marker set,
// so the peer decides locally instead of re-routing, and counts one forward.
// It returns the peer's status and response body; any error (breaker open,
// transport failure, peer 5xx) means the caller should fall back to its
// local decision path.
func (p *Peers) Forward(ctx context.Context, m Member, path string, body []byte) (int, []byte, error) {
	p.forwards.Add(1)
	return p.Continue(ctx, m, path, body)
}

// Continue posts a later leg of a forward that Forward already counted —
// the rows that follow a lookup the owner could not answer — so a routed
// request counts one forward however many legs it takes. A failed leg counts
// as a forward error, as in Forward; the caller falls back on the first one.
func (p *Peers) Continue(ctx context.Context, m Member, path string, body []byte) (int, []byte, error) {
	status, data, err := p.client.Post(ctx, m.Addr, path, p.self.ID, body)
	if err != nil {
		p.forwardErrors.Add(1)
	}
	return status, data, err
}

// Replicate queues one entry for async gossip to the ring successor; a nil
// replicator (replication disabled or single-node ring) is a no-op.
func (p *Peers) Replicate(e ReplEntry) {
	if p.repl != nil {
		p.repl.Enqueue(e)
	}
}

// BroadcastModel pushes a model payload to every other ring member,
// best-effort and sequential (model pushes are rare control-plane traffic).
// It returns how many peers acknowledged. When a trace rides ctx each push
// gets a cluster.model.push span, and the propagated headers make every
// peer's apply a fragment of the same trace.
func (p *Peers) BroadcastModel(ctx context.Context, body []byte) int {
	acked := 0
	for _, m := range p.ring.Members() {
		if m.ID == p.self.ID {
			continue
		}
		p.modelBroadcasts.Add(1)
		sctx, sp := telemetry.StartSpan(ctx, "cluster.model.push", telemetry.String("peer", m.ID))
		status, _, err := p.client.Post(sctx, m.Addr, ModelPath, p.self.ID, body)
		if err != nil || status >= 300 {
			p.modelBroadcastNG.Add(1)
			if err == nil {
				err = fmt.Errorf("cluster: peer %s returned %d", m.ID, status)
			}
			sp.EndErr(err)
			continue
		}
		sp.End()
		acked++
	}
	return acked
}

// Others returns every ring member except the local node, in ring order.
func (p *Peers) Others() []Member {
	members := p.ring.Members()
	out := make([]Member, 0, len(members))
	for _, m := range members {
		if m.ID != p.self.ID {
			out = append(out, m)
		}
	}
	return out
}

// PeerDown reports whether m's breaker is open (see Client.PeerDown).
func (p *Peers) PeerDown(m Member) bool { return p.client.PeerDown(m.Addr) }

// FetchTrace fetches peer m's local fragment of trace id. found=false means
// the peer answered but holds no fragment (not an error: most traces touch
// a subset of the ring). A breaker-open peer fails fast with ErrPeerDown so
// trace assembly never probes a known-dead node.
func (p *Peers) FetchTrace(ctx context.Context, m Member, id string) (data []byte, found bool, err error) {
	if p.client.PeerDown(m.Addr) {
		return nil, false, ErrPeerDown
	}
	status, data, err := p.client.Get(ctx, m.Addr, "/v1/trace/"+id+"?scope=local")
	if err != nil {
		return nil, false, err
	}
	if status == 404 {
		return nil, false, nil
	}
	if status != 200 {
		return nil, false, fmt.Errorf("cluster: peer %s trace fetch returned %d", m.ID, status)
	}
	return data, true, nil
}

// SetTraceSink routes traces recorded inside the cluster layer itself —
// today the replicator's per-flush gossip traces — into the node's trace
// store. The serve layer wires this at construction; a nil sink disables
// gossip tracing.
func (p *Peers) SetTraceSink(sink func(*telemetry.Trace)) {
	if p.repl != nil {
		p.repl.setTraceSink(sink)
	}
}

// Stop terminates the replicator (flushing its queue best-effort) and
// releases idle peer connections. Call during drain, before the HTTP
// listener closes, so the final gossip flush can still go out.
func (p *Peers) Stop() {
	if p.repl != nil {
		p.repl.Stop()
	}
	p.client.Close()
}

// ReplicatorStats snapshots gossip counters (zero when disabled).
func (p *Peers) ReplicatorStats() ReplicatorStats {
	if p.repl == nil {
		return ReplicatorStats{}
	}
	return p.repl.Stats()
}

// Forwards reports how many requests were forwarded to ring owners.
func (p *Peers) Forwards() int64 { return p.forwards.Load() }

// ForwardErrors reports forwards that failed and fell back locally.
func (p *Peers) ForwardErrors() int64 { return p.forwardErrors.Load() }

// MetricFamilies renders the cluster state as telemetry families: ring
// membership, per-peer breaker state, forward and replication counters.
// The serve registry mounts this as a scrape-time collector.
func (p *Peers) MetricFamilies(prefix string) []telemetry.Family {
	members := p.ring.Members()
	nodes := telemetry.Family{
		Name: prefix + "_cluster_nodes", Kind: telemetry.KindGauge,
		Help:    "Ring members in this node's membership view.",
		Samples: []telemetry.Sample{{Value: float64(len(members))}},
	}
	state := telemetry.Family{
		Name: prefix + "_cluster_peer_breaker_state", Kind: telemetry.KindGauge,
		Help: "Peer forwarding breaker state (0 closed, 1 open, 2 half-open), by peer.",
	}
	opens := telemetry.Family{
		Name: prefix + "_cluster_peer_breaker_opens_total", Kind: telemetry.KindCounter,
		Help: "Times a peer's forwarding breaker tripped open, by peer.",
	}
	for _, m := range members {
		if m.ID == p.self.ID {
			continue
		}
		b := p.client.breakerFor(m.Addr)
		label := []telemetry.Label{telemetry.L("peer", m.ID)}
		state.Samples = append(state.Samples, telemetry.Sample{Labels: label, Value: float64(b.State())})
		opens.Samples = append(opens.Samples, telemetry.Sample{Labels: label, Value: float64(b.Opens())})
	}
	fwd := telemetry.Family{
		Name: prefix + "_cluster_forwards_total", Kind: telemetry.KindCounter,
		Help:    "Requests forwarded to their ring owner.",
		Samples: []telemetry.Sample{{Value: float64(p.forwards.Load())}},
	}
	fwdErr := telemetry.Family{
		Name: prefix + "_cluster_forward_errors_total", Kind: telemetry.KindCounter,
		Help:    "Forwards that failed (breaker open, transport error, peer 5xx) and fell back to the local decision path.",
		Samples: []telemetry.Sample{{Value: float64(p.forwardErrors.Load())}},
	}
	rs := p.ReplicatorStats()
	repl := func(name, help string, v int64) telemetry.Family {
		return telemetry.Family{
			Name: prefix + name, Kind: telemetry.KindCounter, Help: help,
			Samples: []telemetry.Sample{{Value: float64(v)}},
		}
	}
	return []telemetry.Family{
		nodes, state, opens, fwd, fwdErr,
		repl("_cluster_replication_enqueued_total", "Decision/history records queued for gossip.", rs.Enqueued),
		repl("_cluster_replication_dropped_total", "Records dropped because the gossip queue was full.", rs.Dropped),
		repl("_cluster_replication_sent_total", "Records delivered to the ring successor.", rs.Sent),
		repl("_cluster_replication_batches_total", "Gossip batches flushed.", rs.Batches),
		repl("_cluster_replication_errors_total", "Gossip flushes that failed (batch dropped).", rs.Errors),
		repl("_cluster_model_broadcasts_total", "Model pushes fanned out to peers.", p.modelBroadcasts.Load()),
		repl("_cluster_model_broadcast_errors_total", "Model fan-out sends that failed.", p.modelBroadcastNG.Load()),
	}
}
