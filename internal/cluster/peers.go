package cluster

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Peers is the node-local cluster facade the serve layer talks to: the
// ring, the peer client, and the replicator bundled with the local node's
// identity, plus the forward counters /metrics exposes.
type Peers struct {
	self   Member
	ring   *Ring
	client *Client
	repl   *Replicator

	forwards      atomic.Int64 // requests forwarded to their ring owner
	forwardErrors atomic.Int64 // forwards that failed (transport, 5xx, breaker open)
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
		sctx, sp := telemetry.StartSpan(ctx, "cluster.model.push", telemetry.String("peer", m.ID))
		status, _, err := p.client.Post(sctx, m.Addr, ModelPath, p.self.ID, body)
		if err != nil || status >= 300 {
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
