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
	// Post sends through the transport itself, under a deadline of timeout
	// on its context; Get keeps http.Client, whose redirects and per-request
	// header copy Post has no use for.
	tr        *http.Transport
	hc        *http.Client
	timeout   time.Duration
	threshold int
	cooldown  time.Duration

	mu    sync.Mutex
	peers map[string]*peer // by address
}

// peer is what the client keeps per address: the breaker guarding it and a
// template for each path posted to there.
type peer struct {
	breaker *breaker.Breaker
	posts   map[string]*http.Request // by path; see postTemplate
}

// Content-Type of every peer POST, shared by all their header maps.
var jsonContentType = []string{"application/json"}

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
		tr:        tr,
		hc:        &http.Client{Transport: tr, Timeout: opts.Timeout},
		timeout:   opts.Timeout,
		threshold: opts.BreakerThreshold,
		cooldown:  opts.BreakerCooldown,
		peers:     make(map[string]*peer),
	}
}

// peerLocked returns (creating on first use) what the client keeps for
// addr. Caller holds c.mu.
func (c *Client) peerLocked(addr string) *peer {
	p := c.peers[addr]
	if p == nil {
		p = &peer{breaker: breaker.New(c.threshold, c.cooldown), posts: make(map[string]*http.Request)}
		c.peers[addr] = p
	}
	return p
}

// breakerFor returns (creating on first use) the breaker guarding addr.
func (c *Client) breakerFor(addr string) *breaker.Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerLocked(addr).breaker
}

// postTemplate returns addr's breaker and the template of a POST to
// addr+path sent with the forwarded marker from: the URL parsed once, and
// the headers every such request carries — Content-Type and the marker —
// in a map shared by every request that carries no trace headers. Post
// sends shallow copies of it to the transport, which only reads a request;
// neither the template nor its header map is modified once built.
func (c *Client) postTemplate(addr, path, from string) (*breaker.Breaker, *http.Request, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.peerLocked(addr)
	if t := p.posts[path]; t != nil && t.Header.Get(ForwardedHeader) == from {
		return p.breaker, t, nil
	}
	t, err := http.NewRequest(http.MethodPost, addr+path, nil)
	if err != nil {
		return p.breaker, nil, err
	}
	t.Header = http.Header{"Content-Type": jsonContentType}
	if from != "" {
		t.Header[ForwardedHeader] = []string{from}
	}
	p.posts[path] = t
	return p.breaker, t, nil
}

// postBody is one Post's request body. It carries the values of the
// request's trace headers too, so a traced request costs one object more
// than its header map, not one per header.
type postBody struct {
	bytes.Reader
	data  []byte
	trace [2]string // TraceHeader, ParentHeader
}

func (b *postBody) Close() error { return nil }

// reopen is the request's GetBody: a fresh reader over the same bytes, for
// the transport to replay the body on a keepalive connection that died
// before any of it was written.
func (b *postBody) reopen() (io.ReadCloser, error) {
	fresh := &postBody{data: b.data}
	fresh.Reset(b.data)
	return fresh, nil
}

// newPost is one request from a template: a shallow copy carrying ctx, body
// and, when ctx carries a trace, a header map of its own with the
// propagation headers added to the template's.
func newPost(ctx context.Context, tmpl *http.Request, body []byte) *http.Request {
	pb := &postBody{data: body}
	pb.Reset(body)
	req := tmpl.WithContext(ctx)
	req.Body, req.GetBody, req.ContentLength = pb, pb.reopen, int64(len(body))
	if tid, sid, ok := telemetry.ContextTraceParent(ctx); ok {
		pb.trace = [2]string{tid, sid}
		req.Header = make(http.Header, len(tmpl.Header)+2)
		for k, v := range tmpl.Header {
			req.Header[k] = v
		}
		req.Header[TraceHeader], req.Header[ParentHeader] = pb.trace[0:1:1], pb.trace[1:2:2]
	}
	return req
}

// readReply reads a peer's response body: into one exact-size buffer when
// the peer declared its length, as every short reply does, and capped at
// maxPeerResponse either way.
func readReply(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxPeerResponse {
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxPeerResponse))
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
//
// The transport may go on reading body after Post returns (when the peer
// answers before it has read the request), so body must not be reused.
func (c *Client) Post(ctx context.Context, addr, path, from string, body []byte) (int, []byte, error) {
	b, tmpl, err := c.postTemplate(addr, path, from)
	if !b.Allow() {
		return 0, nil, ErrPeerDown
	}
	if err != nil {
		b.Failure()
		return 0, nil, err
	}
	if d, ok := ctx.Deadline(); !ok || time.Until(d) > c.timeout {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	resp, err := c.tr.RoundTrip(newPost(ctx, tmpl, body))
	if err != nil {
		b.Failure()
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := readReply(resp)
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
	c.tr.CloseIdleConnections()
}
