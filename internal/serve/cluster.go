package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/online"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

// This file is the serve side of the cluster subsystem (internal/cluster):
// shape-class routing over the consistent-hash ring, the gossip and model
// endpoints peers talk to, and the atomically swappable predictor that
// makes hot model distribution safe under live traffic.
//
// Routing contract: a request whose shape-class key is owned by a remote
// peer is forwarded there (one hop — forwarded requests carry a marker and
// are always decided locally by the receiver). The hop asks for the owner's
// cached decision by key first and sends the rows only when the owner has
// none, and any failure on either leg falls back to the local decision
// path. A peer death therefore degrades locality, never availability: the
// local node still answers, and its breaker-guarded client stops dialing
// the dead peer after a few failures.

// ctxForwarded marks a request context as already routed by a peer.
type ctxForwarded struct{}

func withForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxForwarded{}, true)
}

func isForwarded(ctx context.Context) bool {
	v, _ := ctx.Value(ctxForwarded{}).(bool)
	return v
}

// acceptForwarded marks a request a ring peer already routed here: it is
// decided locally no matter what the ring says, so routing can never loop.
func (s *Server) acceptForwarded(r *http.Request) *http.Request {
	if s.cluster == nil || r.Header.Get(cluster.ForwardedHeader) == "" {
		return r
	}
	s.forwardedServed.Add(1)
	return r.WithContext(withForwarded(r.Context()))
}

// decisionWire is a decision-cache entry on the wire: the replicated form
// gossip sends a ring successor, and the verdict an owner answers a lookup
// leg with. The cache key it belongs to is the versioned shape-class key
// (v2 for SMSV, p1 for SpGEMM), so schema drift between releases can never
// alias entries. Gossip sends the first four fields only — the successor
// needs just the verdict to answer after a failover — and a lookup answer
// adds what stays on the owner, so the forwarder can render the reply the
// owner would have.
type decisionWire struct {
	Candidate  string  `json:"candidate"` // the workload's candidate string form
	Source     string  `json:"source"`    // the rung's word (core.Rung.String)
	Confidence float64 `json:"confidence,omitempty"`
	// EstimatedNNZ is the SpGEMM output-size estimate; SMSV entries omit it.
	EstimatedNNZ float64 `json:"estimated_nnz,omitempty"`
	// OutputNNZ is a measured SpGEMM decision's exact output size, Degraded
	// marks a short-lived placeholder, and Measured is the entry's evidence
	// as its reply's "measured" array.
	OutputNNZ int64           `json:"output_nnz,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
	Measured  json.RawMessage `json:"measured,omitempty"`
}

// lookupRequest is the body of a forward's lookup leg: the shape-class key
// the forwarder built, whose version prefix names the workload.
type lookupRequest struct {
	Key string `json:"key"`
}

// historyWire is the replicated form of one tuning-history record: the nine
// Table IV parameters plus the chosen joint candidate. The receiver re-runs
// dataset.Embed, so embedded-space drift between binaries cannot corrupt a
// peer's history.
type historyWire struct {
	Features  FeaturesJSON `json:"features"`
	Candidate string       `json:"candidate"`
}

func (w historyWire) label() string { return w.Candidate }

func (w historyWire) operands() (smsvIn, bool) {
	f := w.Features.Features()
	return smsvIn{feats: f}, f.M > 0 && f.N > 0
}

// ModelPushRequest is the /v1/cluster/model body: a trained predictor in
// its JSON wire form. Propagate makes the receiving node fan the model out
// to every other ring member (with propagate off, so the fan-out is one
// level deep and cannot echo). Kind selects the workload the model serves:
// "" or "smsv" routes through ModelLoader into the format-predictor swap,
// "spgemm-pair" through PairModelLoader into the pair-predictor swap — the
// same discriminator strings the model files themselves carry, so a model
// can never be installed into the wrong workload's slot.
type ModelPushRequest struct {
	Model     json.RawMessage `json:"model"`
	Kind      string          `json:"kind,omitempty"`
	Propagate bool            `json:"propagate,omitempty"`
}

// ModelKindSMSV is the SMSV model push kind; each workload's push kind is
// its harvest-record kind (online.Kind).
var ModelKindSMSV = string(online.KindSMSV)

// ModelPushResponse acknowledges a model push. TraceID names the trace
// the apply (and any fan-out) was recorded under — the pusher's own
// trace when headers propagated one, or a fresh trace on a direct
// operator push — so /v1/trace/{id} shows the ring-wide distribution.
type ModelPushResponse struct {
	Swapped    bool   `json:"swapped"`
	Propagated int    `json:"propagated"`
	TraceID    string `json:"trace_id,omitempty"`
}

// predictorSwap is an atomically swappable predictor: the schedulers and
// handlers hold one stable pointer for the server's lifetime while a model
// push or an online promotion replaces the model underneath with a single
// atomic store. P is the workload's predictor interface; the swap
// implements both workloads' (core.FormatPredictor, core.PairPredictor)
// and answers ok=false from the one P is not, as it does when the zero P
// means "no model loaded" — which every caller already treats as "measure
// instead".
type predictorSwap[P comparable] struct {
	v     atomic.Pointer[P]
	swaps atomic.Int64
}

// PredictCandidate implements core.FormatPredictor.
func (s *predictorSwap[P]) PredictCandidate(f dataset.Features) (sparse.Candidate, float64, bool) {
	if p, ok := any(s.load()).(core.FormatPredictor); ok {
		return p.PredictCandidate(f)
	}
	return sparse.Candidate{}, 0, false
}

// PredictPair implements core.PairPredictor.
func (s *predictorSwap[P]) PredictPair(fa, fb dataset.Features) (spgemm.Candidate, float64, bool) {
	if p, ok := any(s.load()).(core.PairPredictor); ok {
		return p.PredictPair(fa, fb)
	}
	return spgemm.Candidate{}, 0, false
}

func (s *predictorSwap[P]) load() (p P) {
	if v := s.v.Load(); v != nil {
		p = *v
	}
	return p
}

// set installs p without counting a swap: the boot-time model.
func (s *predictorSwap[P]) set(p P) { s.v.Store(&p) }

// swap installs p (the zero P unloads the model) and counts the swap.
func (s *predictorSwap[P]) swap(p P) {
	s.set(p)
	s.swaps.Add(1)
}

// Loaded reports whether a model is present.
func (s *predictorSwap[P]) Loaded() bool {
	var none P
	return s.load() != none
}

// InstallModel makes model, in its model-file form, the serving predictor
// of the workload whose push kind is kind — through the same loader and
// hot swap a cluster push of that kind takes — and pushes it to every other
// ring member without propagate; peers counts the acks (0 on a
// non-clustered server: the install still succeeds locally). A nil model
// unloads the predictor here and pushes nothing, so peers keep what they
// serve until the next install. This is the install step of an online
// promotion.
func (s *Server) InstallModel(ctx context.Context, kind string, model []byte) (peers int, err error) {
	slot, ok := s.models[kind]
	switch {
	case !ok:
		return 0, fmt.Errorf("unknown model kind %q", kind)
	case model == nil:
		slot.unload()
		return 0, nil
	case slot.install == nil:
		return 0, fmt.Errorf("no %s loader configured", slot.noun)
	}
	if err := slot.install(model); err != nil {
		return 0, err
	}
	if s.cluster == nil {
		return 0, nil
	}
	body, err := json.Marshal(ModelPushRequest{Model: model, Kind: kind})
	if err != nil {
		return 0, err
	}
	return s.cluster.BroadcastModel(ctx, body), nil
}

// PredictorStats reports the predictor counters of the workload whose push
// kind is kind: decisions its predictor answered without measurement, and
// predict-policy decisions that fell back to measurement.
func (s *Server) PredictorStats(kind string) (hits, fallbacks int64) {
	if slot, ok := s.models[kind]; ok {
		return slot.counts.predictorHits.Load(), slot.counts.predictorFallbacks.Load()
	}
	return 0, 0
}

// The two legs of a forward hop, as cluster.forward spans name them.
const (
	legLookup = "lookup"
	legRows   = "rows"
)

// forwardLeg posts one leg of a forward hop to m under a cluster.forward
// span naming the peer and the leg. The lookup leg counts the forward
// (Peers.Forward); the rows leg continues it (Peers.Continue), so a routed
// request is one forward however many legs it takes. ok=false means the
// caller decides locally: any transport failure, open peer breaker, or peer
// 5xx.
func (s *Server) forwardLeg(ctx context.Context, m cluster.Member, leg, path string, body []byte) (status int, data []byte, ok bool) {
	fctx, sp := telemetry.StartSpan(ctx, "cluster.forward",
		telemetry.String("peer", m.ID), telemetry.String("leg", leg))
	var err error
	if leg == legLookup {
		status, data, err = s.cluster.Forward(fctx, m, path, body)
	} else {
		status, data, err = s.cluster.Continue(fctx, m, path, body)
	}
	if err != nil {
		sp.EndErr(err)
		return 0, nil, false
	}
	sp.Annotate(telemetry.Int("status", status))
	sp.End()
	return status, data, true
}

// askOwner is the forward hop for a key the ring gives to m, in two legs.
// The lookup leg sends the key alone, and the owner answers from its cache
// with the entry's verdict, rebuilt here (fromWire) as hit — never cached
// here: the owner stays the one authority for its classes.
// Or the owner answers 404, because the class is not cached there or
// because it predates the lookup route; only then does the rows leg post
// rows() to path, and the owner's reply to it comes back undecoded as peer.
// ok=false means a leg failed and the caller decides locally.
func askOwner[In any, C candidate, R evidenceRow[C, R]](ctx context.Context, s *Server, w *workload[In, C, R], m cluster.Member, key []byte, path string, rows func() []byte) (hit *Cached[C, R], peer *peerReply, ok bool) {
	status, data, ok := s.forwardLeg(ctx, m, legLookup, cluster.LookupPath, appendLookupBody(nil, key))
	if !ok {
		return nil, nil, false
	}
	if status == http.StatusOK {
		if val, err := w.fromWire(data); err == nil {
			return val, nil, true
		}
		// A verdict this build cannot read is asked again with the rows.
	}
	if status, data, ok = s.forwardLeg(ctx, m, legRows, path, rows()); !ok {
		return nil, nil, false
	}
	return nil, &peerReply{peer: m.ID, status: status, body: data}, true
}

// routed is one key's decision wherever it was made: here (decide's
// outcome), in the owner's cache (outcome "hit"), or by the owner from the
// rows, whose reply comes back undecoded in peer with val unset.
type routed[C candidate, R evidenceRow[C, R]] struct {
	val     *Cached[C, R]
	outcome string
	peer    *peerReply
}

// decideRouted is decide behind the ring, for every endpoint that routes:
// a key another member owns is asked of that owner (askOwner), and decided
// here when this node owns it, when the request was already forwarded once,
// or when the owner cannot be reached — locality is lost then, availability
// is not. rows builds the rows leg's body, and only a lookup miss calls it.
// trace, when non-nil, notes which way the decision went.
func decideRouted[In any, C candidate, R evidenceRow[C, R]](ctx context.Context, s *Server, w *workload[In, C, R], policy core.Policy, key []byte, in In, trace *traceLines, path string, rows func() []byte) (routed[C, R], error) {
	s.noteLoopAverted(ctx, key, trace)
	if m, owned := routeOwner(ctx, s, w.cache, key); owned {
		hit, peer, ok := askOwner(ctx, s, w, m, key, path, rows)
		switch {
		case peer != nil:
			return routed[C, R]{peer: peer}, nil
		case ok:
			if trace != nil {
				trace.text("cluster: owner ").text(m.ID).text(" answered from its cache").end()
			}
			return routed[C, R]{val: hit, outcome: "hit"}, nil
		}
		if trace != nil {
			trace.text("cluster: owner ").text(m.ID).text(" unreachable, deciding locally").end()
		}
	}
	val, outcome, err := decide(ctx, s, w, policy, key, in)
	return routed[C, R]{val: val, outcome: outcome}, err
}

// lookupMiss is the 404 body of a lookup for a class not cached here; it
// never varies, so it is written as it is.
var lookupMiss = []byte(`{"error":"shape class not cached here"}` + "\n")

// handleClusterLookup answers a forward's lookup leg: the shape-class key a
// ring peer already built, looked up in the cache of the workload its
// version prefix names. A hit answers 200 with the entry's verdict and is
// recorded as a cluster.lookup fragment of the forwarder's trace; a miss
// answers 404, untraced, and the rows leg that follows is decided here like
// any forwarded request. A lookup never routes, measures or counts a cache
// miss, and it counts a forwarded serve only when it answers one.
func (s *Server) handleClusterLookup(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusServiceUnavailable, "clustering disabled (start layoutd with -peers)")
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	env, ok := decodeEnvelope[lookupRequest](s, sc, w, r, lookupFields)
	if !ok {
		return
	}
	var dw decisionWire
	switch {
	case hasKeyVersion(env.key, keyVersion):
		dw, ok = lookup(s.smsv.cache, env.key)
	case hasKeyVersion(env.key, pairKeyVersion):
		dw, ok = lookup(s.pair.cache, env.key)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("key %q names no workload this node serves", env.key))
		return
	}
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write(lookupMiss)
		return
	}
	s.forwardedServed.Add(1)
	ctx, tr, root := s.joinOrStartTrace(r, "cluster.lookup")
	telemetry.StartLeaf(ctx, "cache.do", telemetry.Bytes("key", env.key),
		telemetry.String("outcome", "hit"), telemetry.String("source", dw.Source)).End()
	sc.out.verdict(&dw)
	writeReply(w, &sc.out)
	s.endTrace(w, tr, root, nil)
}

// hasKeyVersion reports whether key is a shape-class key of the given
// schema version: "<version>|...".
func hasKeyVersion(key []byte, version string) bool {
	return len(key) > len(version) && string(key[:len(version)]) == version && key[len(version)] == '|'
}

// lookup is a workload cache's answer to a lookup leg: the live entry's
// verdict, counted as the hit it is.
func lookup[C candidate, R evidenceRow[C, R]](cache *Cache[*Cached[C, R]], key []byte) (decisionWire, bool) {
	val, ok := cache.Get(key)
	if !ok {
		return decisionWire{}, false
	}
	return val.wire(), true
}

// relay writes a forwarded peer response through to the client.
func relay(w http.ResponseWriter, status int, data []byte) {
	if status == http.StatusTooManyRequests {
		// The owner's admission control said back off; the Retry-After
		// contract must survive the relay.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// routeOwner reports the remote owner a not-locally-cached shape class
// should be forwarded to, or ok=false when the request must be decided
// here: clustering off, request already forwarded once, or the local node
// owns the key.
func routeOwner[V Degradable](ctx context.Context, s *Server, cache *Cache[V], key []byte) (cluster.Member, bool) {
	if s.cluster == nil || isForwarded(ctx) {
		return cluster.Member{}, false
	}
	if cache.Peek(key) {
		// Replication (or an earlier fallback) already landed this shape
		// class locally; answering from the local cache beats a network hop.
		return cluster.Member{}, false
	}
	return s.cluster.Route(key)
}

// noteLoopAverted handles divergent membership views: the sender's ring
// said this node owns the key, ours disagrees. The forwarded marker
// already stops the loop — record that it did, in a span and (when the
// reply carries trace lines) in one of those, so operators can see view
// skew instead of inferring it from hops.
func (s *Server) noteLoopAverted(ctx context.Context, key []byte, trace *traceLines) {
	if s.cluster == nil || !isForwarded(ctx) {
		return
	}
	m, owned := s.cluster.Route(key)
	if !owned {
		return
	}
	telemetry.StartLeaf(ctx, "forward.loop_averted", telemetry.String("claimed_owner", m.ID)).End()
	if trace != nil {
		trace.text("cluster: forwarded here but local ring says ").text(m.ID).
			text(" owns this key; deciding locally (loop averted)").end()
	}
}

// gossip queues a freshly computed decision (and, when it was measured,
// the history record behind it) for async gossip to the ring successor:
// the decision as an owner renders it, less what stays on the owner, and
// the history record in its workload's wire form. Degraded decisions are
// not replicated: they are short-TTL placeholders, not evidence.
func gossip[C candidate, R evidenceRow[C, R], H any](s *Server, val *Cached[C, R], key []byte, decisionKind, historyKind string, history H) {
	if s.cluster == nil || val.IsDegraded() {
		return
	}
	dw := val.wire()
	dw.OutputNNZ, dw.Degraded, dw.Measured = 0, false, nil
	payload, err := json.Marshal(dw)
	if err != nil {
		return
	}
	s.cluster.Replicate(cluster.ReplEntry{Kind: decisionKind, Key: string(key), Payload: payload})
	if val.Rung == core.RungMeasured {
		if hp, err := json.Marshal(history); err == nil {
			s.cluster.Replicate(cluster.ReplEntry{Kind: historyKind, Payload: hp})
		}
	}
}

// handleClusterReplicate applies a gossip batch from a ring peer: decision
// entries land in their workload's decision cache under their shape-class
// key, history entries in its tuning history. Entries of unknown kind or
// that fail to parse are skipped individually — gossip is best-effort in
// both directions.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusServiceUnavailable, "clustering disabled (start layoutd with -peers)")
		return
	}
	var payload cluster.ReplicatePayload
	if !decodeStrict(w, r.Body, &payload) {
		return
	}
	// A gossip flush whose sender recorded a replicate.flush trace
	// propagates it here; the apply becomes a fragment of that trace.
	// Without headers no trace is recorded — steady-state gossip must not
	// churn the bounded trace store.
	var tr *telemetry.Trace
	var root telemetry.Span
	if tid, parent, ok := s.traceHeaders(r); ok {
		_, tr, root = s.traces.NewRemoteTrace(r.Context(), tid, parent, s.node, "replicate.apply",
			telemetry.String("from", payload.From),
			telemetry.Int("entries", len(payload.Entries)))
	}
	applied, skipped := 0, 0
	for _, e := range payload.Entries {
		if apply := s.replApply[e.Kind]; apply != nil && apply(e) {
			applied++
		} else {
			skipped++
		}
	}
	if tr != nil {
		s.endTrace(w, tr, root, nil)
	}
	s.logger.Debug("replication batch applied",
		"from", payload.From, "applied", applied, "skipped", skipped)
	writeJSON(w, http.StatusOK, cluster.ReplicateResponse{Applied: applied, Skipped: skipped})
}

// applyDecision returns a workload's gossip sink for decision entries:
// rebuild the entry (fromWire), then cache it under the entry's shape-class
// key. The sink reports false for an entry to skip.
func applyDecision[In any, C candidate, R evidenceRow[C, R]](w *workload[In, C, R]) func(cluster.ReplEntry) bool {
	return func(e cluster.ReplEntry) bool {
		if e.Key == "" {
			return false
		}
		val, err := w.fromWire(e.Payload)
		if err != nil {
			return false
		}
		w.cache.Put(e.Key, val)
		return true
	}
}

// historyEntry is a workload's replicated tuning-history record: its
// candidate's string form, and the operands its features describe (ok is
// false for a degenerate shape).
type historyEntry[In any] interface {
	label() string
	operands() (in In, ok bool)
}

// applyHistory returns a workload's gossip sink for tuning-history
// entries: decode the wire form H, parse its candidate, check its shape,
// and record it into the workload's history. The sink reports false for an
// entry to skip.
func applyHistory[H historyEntry[In], In any, C candidate, R evidenceRow[C, R]](w *workload[In, C, R]) func(cluster.ReplEntry) bool {
	return func(e cluster.ReplEntry) bool {
		var hw H
		if err := json.Unmarshal(e.Payload, &hw); err != nil {
			return false
		}
		c, err := w.parse(hw.label())
		if err != nil {
			return false
		}
		in, ok := hw.operands()
		if ok {
			w.record(in, c)
		}
		return ok
	}
}

// modelSlot is one workload's predictor as the model routes reach it by
// push kind: noun names it in replies and logs; install parses a model and
// swaps it in, and is nil when no loader is configured for the kind; unload
// swaps the model out; counts are the workload's decide counters.
type modelSlot struct {
	noun    string
	install func(model []byte) error
	unload  func()
	counts  *decideCounts
}

func newModelSlot[P comparable](noun string, load func([]byte) (P, error), box *predictorSwap[P], counts *decideCounts) modelSlot {
	slot := modelSlot{noun: noun, unload: func() { var none P; box.swap(none) }, counts: counts}
	if load != nil {
		slot.install = func(model []byte) error {
			p, err := load(model)
			if err != nil {
				return err
			}
			box.swap(p)
			return nil
		}
	}
	return slot
}

// handleClusterModel hot-swaps the pushed model's workload predictor and
// optionally fans the model out across the ring. The swap is atomic: in-flight
// decisions finish on the model they started with, the next decision sees
// the new one, and a model that fails validation leaves the old model
// serving.
func (s *Server) handleClusterModel(w http.ResponseWriter, r *http.Request) {
	var req ModelPushRequest
	if !decodeStrict(w, r.Body, &req) {
		return
	}
	if len(req.Model) == 0 {
		writeError(w, http.StatusBadRequest, "model is empty")
		return
	}
	// Every model apply is traced: as a fragment of the pusher's trace when
	// headers propagated one (an online promotion's install, or a peer's
	// propagate fan-out), or as a fresh trace on a direct operator push —
	// so a propagated push is ONE trace spanning the whole ring.
	ctx, tr, root := s.joinOrStartTrace(r, "model.apply",
		telemetry.String("kind", req.Kind))
	var applyErr error
	defer func() { s.endTrace(w, tr, root, applyErr) }()
	slot, known := s.models[req.Kind]
	switch {
	case !known:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown model kind %q", req.Kind))
		return
	case slot.install == nil:
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf(
			"%s distribution disabled (no %s loader configured)", slot.noun, slot.noun))
		return
	}
	if applyErr = slot.install(req.Model); applyErr != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("rejected %s: %v", slot.noun, applyErr))
		return
	}
	s.logger.Info(slot.noun+" hot-swapped", "from", r.Header.Get(cluster.ForwardedHeader))
	propagated := 0
	if req.Propagate && s.cluster != nil {
		body, err := json.Marshal(ModelPushRequest{Model: req.Model, Kind: req.Kind})
		if err == nil {
			// ctx carries the apply trace, so each fan-out push gets a
			// cluster.model.push span and every peer's apply joins the trace.
			propagated = s.cluster.BroadcastModel(ctx, body)
		}
	}
	writeJSON(w, http.StatusOK, ModelPushResponse{Swapped: true, Propagated: propagated, TraceID: tr.ID})
}

// fetchPeerFragments gathers every other ring member's local fragment of
// trace id, under one overall deadline with a per-peer timeout and a
// bounded fan-out. Breaker-open peers fail fast without a dial. The
// second result is true when any peer could not answer — the assembled
// trace is then marked incomplete instead of the request failing.
func (s *Server) fetchPeerFragments(ctx context.Context, id string) ([]telemetry.TraceJSON, bool) {
	others := s.cluster.Others()
	if len(others) == 0 {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.TraceFetchTimeout)
	defer cancel()
	sem := make(chan struct{}, 8)
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		frags      []telemetry.TraceJSON
		incomplete bool
	)
	for _, m := range others {
		wg.Add(1)
		go func(m cluster.Member) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pctx, pcancel := context.WithTimeout(ctx, s.cfg.TraceFetchPeerTimeout)
			defer pcancel()
			data, found, err := s.cluster.FetchTrace(pctx, m, id)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				incomplete = true
				return
			}
			if !found {
				return // peer answered: this trace never touched it
			}
			var frag telemetry.TraceJSON
			if json.Unmarshal(data, &frag) != nil || frag.TraceID != id {
				incomplete = true
				return
			}
			frags = append(frags, frag)
		}(m)
	}
	wg.Wait()
	return frags, incomplete
}

// registerClusterMetrics hangs every cluster series on the registry; called
// from registerMetrics only when clustering is enabled. The counters live
// where they are counted — forwards in cluster.Peers, gossip in its
// replicator, forwarded serves here — and are read at scrape time.
func (s *Server) registerClusterMetrics() {
	reg := s.metrics.reg
	counter := func(name, help string, fn func() int64) {
		reg.CounterFunc("layoutd_cluster_"+name, help, func() float64 { return float64(fn()) })
	}
	counter("forwards_total", "Requests forwarded to their ring owner.", s.cluster.Forwards)
	counter("forward_errors_total",
		"Forward legs that failed (breaker open, transport error, peer 5xx); each is answered by the local decision path.",
		s.cluster.ForwardErrors)
	counter("forwarded_served_total",
		"Requests decided here that arrived forwarded from a peer (this node owns their shape class).",
		s.forwardedServed.Load)
	counter("replication_enqueued_total", "Decision/history records queued for gossip.",
		func() int64 { return s.cluster.ReplicatorStats().Enqueued })
	counter("replication_dropped_total", "Records dropped because the gossip queue was full.",
		func() int64 { return s.cluster.ReplicatorStats().Dropped })
}
