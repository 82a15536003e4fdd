package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/telemetry"
)

// ErrPeerDown is returned by Client.Post when the target peer's circuit
// breaker is open: the peer has failed consecutively and the cooldown has
// not lapsed, so the call fails fast instead of paying a dial timeout.
var ErrPeerDown = errors.New("cluster: peer breaker open")

// Peer-breaker defaults: forwarding failures are cheap to detect (a refused
// connection returns in microseconds), so the threshold is low and the
// cooldown short — a dead peer costs at most a few failed dials before
// every request falls back to the local decision path.
const (
	// DefaultBreakerThreshold is how many consecutive peer failures trip
	// that peer's breaker open.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open peer breaker rejects
	// forwards before admitting a half-open probe.
	DefaultBreakerCooldown = 5 * time.Second
)

// DefaultForwardTimeout bounds one forwarded request. Forwards carry
// schedule requests whose measurement phase is bounded by the peer's own
// timeout; this is the transport-level ceiling on top of that.
const DefaultForwardTimeout = 10 * time.Second

// maxPeerResponse caps how many response bytes a forward will buffer: a
// decision JSON is a few KB, and a misbehaving peer must not balloon the
// forwarder's memory.
const maxPeerResponse = 8 << 20

// ForwardedHeader marks a request as already routed by a peer. A node
// receiving it always decides locally — one hop, never a forwarding loop,
// even when two nodes' membership views disagree during a rolling restart.
const ForwardedHeader = "X-Layoutd-Forwarded"

// TraceHeader and ParentHeader propagate distributed trace context on every
// inter-node hop, W3C-traceparent-shaped: TraceHeader carries the 16-hex
// trace id shared by every fragment of one logical operation, ParentHeader
// the 16-hex wire id (telemetry.SpanWireID) of the caller's current span.
// Client.Post injects them from the request context; serve handlers extract
// them into telemetry.TraceStore.NewRemoteTrace.
const (
	TraceHeader  = "X-Layoutd-Trace"
	ParentHeader = "X-Layoutd-Parent"
)

// Client is the peer-to-peer HTTP client: one shared keepalive transport
// (connections persist across forwards, so steady-state routing pays no
// dial) plus a consecutive-failure circuit breaker per peer address.
type Client struct {
	hc        *http.Client
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	breakers map[string]*breaker.Breaker
}

// ClientOptions tune a Client; the zero value takes every default.
type ClientOptions struct {
	// Timeout bounds one forwarded request end to end. 0 = DefaultForwardTimeout.
	Timeout time.Duration
	// BreakerThreshold and BreakerCooldown configure the per-peer breaker;
	// zeros take the cluster defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MaxIdlePerPeer caps pooled keepalive connections per peer. 0 = 32.
	MaxIdlePerPeer int
}

// NewClient builds a peer client with a keepalive connection pool.
func NewClient(opts ClientOptions) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultForwardTimeout
	}
	if opts.MaxIdlePerPeer <= 0 {
		opts.MaxIdlePerPeer = 32
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = DefaultBreakerCooldown
	}
	tr := &http.Transport{
		MaxIdleConns:        opts.MaxIdlePerPeer * 8,
		MaxIdleConnsPerHost: opts.MaxIdlePerPeer,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{
		hc:        &http.Client{Transport: tr, Timeout: opts.Timeout},
		threshold: opts.BreakerThreshold,
		cooldown:  opts.BreakerCooldown,
		breakers:  make(map[string]*breaker.Breaker),
	}
}

// breakerFor returns (creating on first use) the breaker guarding addr.
func (c *Client) breakerFor(addr string) *breaker.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[addr]
	if b == nil {
		b = breaker.New(c.threshold, c.cooldown)
		c.breakers[addr] = b
	}
	return b
}

// PeerState reports the breaker position guarding addr ("closed" when the
// peer has never been contacted).
func (c *Client) PeerState(addr string) string {
	return c.breakerFor(addr).State().String()
}

// PeerOpens reports how many times addr's breaker has tripped.
func (c *Client) PeerOpens(addr string) int64 {
	return c.breakerFor(addr).Opens()
}

// PeerDown reports whether addr's breaker is currently open — a cheap
// pre-check for best-effort fan-outs (trace assembly) that want to skip
// known-dead peers without probing them.
func (c *Client) PeerDown(addr string) bool {
	return c.breakerFor(addr).State() == breaker.Open
}

// Post sends body as JSON to addr+path with the forwarded marker set to
// from, returning the response status and body. Transport failures and 5xx
// responses count against the peer's breaker (the peer is unhealthy); 2xx
// and 4xx count as contact (4xx is the request's fault, not the peer's).
// When the breaker is open the call returns ErrPeerDown without dialing.
func (c *Client) Post(ctx context.Context, addr, path, from string, body []byte) (int, []byte, error) {
	b := c.breakerFor(addr)
	if !b.Allow() {
		return 0, nil, ErrPeerDown
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		b.Failure()
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if from != "" {
		req.Header.Set(ForwardedHeader, from)
	}
	if tid, sid, ok := telemetry.ContextTraceParent(ctx); ok {
		req.Header.Set(TraceHeader, tid)
		req.Header.Set(ParentHeader, sid)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		b.Failure()
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	if err != nil {
		b.Failure()
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode >= 500 {
		b.Failure()
		return resp.StatusCode, data, fmt.Errorf("cluster: peer %s returned %d", addr, resp.StatusCode)
	}
	b.Success()
	return resp.StatusCode, data, nil
}

// Get fetches addr+path (health probes, metrics cross-checks). Gets do not
// move the breaker: they are diagnostics, not the routed hot path.
func (c *Client) Get(ctx context.Context, addr, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
	return resp.StatusCode, data, err
}

// Close releases idle keepalive connections.
func (c *Client) Close() {
	if tr, ok := c.hc.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}
