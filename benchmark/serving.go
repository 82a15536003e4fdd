package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

var endpointPaths = [...]string{
	epSchedule: "/v1/schedule",
	epBatch:    "/v1/schedule/batch",
	epSpGEMM:   "/v1/schedule/spgemm",
}

// answer is the part of a decision that must not change between the
// request that computed it and every later cache hit or forwarded reply.
// The zero answer means "not seen yet".
type answer struct{ chosen, chunk, variant string }

// request is one pre-marshalled client request with what is needed to
// check its reply and to replay its stages.
type request struct {
	endpoint int
	body     []byte
	operands []matrix // 1 for schedule, 16 for batch, A and B for spgemm
	policy   string   // the policy the server resolves the request to
	want     []answer // per decision; filled by warm-up, read-only under load
}

// serverPolicy is the policy every benchmark server is configured with
// (nodeConfig), as requests and cache keys spell it: what a request that
// names no policy resolves to.
const serverPolicy = "hybrid"

// scheduleRequest asks for policy; "" leaves the choice to the server.
func scheduleRequest(mx matrix, policy string) *request {
	return &request{
		endpoint: epSchedule,
		body:     mustJSON(serve.ScheduleRequest{Data: mx.data, Policy: policy}),
		operands: []matrix{mx},
		policy:   cmp.Or(policy, serverPolicy),
		want:     make([]answer, 1),
	}
}

func batchRequest(items []matrix) *request {
	req := serve.BatchScheduleRequest{Items: make([]serve.ScheduleRequest, len(items))}
	for i, mx := range items {
		req.Items[i].Data = mx.data
	}
	return &request{
		endpoint: epBatch, body: mustJSON(req), operands: items,
		policy: serverPolicy, want: make([]answer, len(items)),
	}
}

func spgemmRequest(p pair, policy string) *request {
	return &request{
		endpoint: epSpGEMM,
		body:     mustJSON(serve.SpGEMMRequest{A: p.a.data, B: p.b.data, Policy: policy}),
		operands: []matrix{p.a, p.b},
		policy:   cmp.Or(policy, serverPolicy),
		want:     make([]answer, 1),
	}
}

// replyInfo is what one checked reply contributes to the op record.
type replyInfo struct {
	source   int // index into sourceNames: the op's weakest decision source
	measured int // candidates measured, summed over the op's decisions
	degraded int
	traceID  string
}

// check validates a reply against the request. With learn set (warm-up)
// unseen answers are recorded; under load they are only compared, so want
// is never written while clients read it.
func (rq *request) check(status int, reply []byte, learn bool) (replyInfo, error) {
	info := replyInfo{source: -1}
	if status != http.StatusOK {
		return info, fmt.Errorf("status %d: %s", status, firstLine(reply))
	}
	switch rq.endpoint {
	case epSchedule:
		var resp serve.ScheduleResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return info, fmt.Errorf("undecodable reply: %w", err)
		}
		info.traceID = resp.Decision.TraceID
		return info, rq.checkDecision(0, &resp.Decision, learn, &info)
	case epBatch:
		var resp serve.BatchScheduleResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return info, fmt.Errorf("undecodable reply: %w", err)
		}
		if len(resp.Decisions) != len(rq.operands) {
			return info, fmt.Errorf("batch of %d items answered with %d decisions", len(rq.operands), len(resp.Decisions))
		}
		info.traceID = resp.TraceID
		for i := range resp.Decisions {
			d := resp.Decisions[i].Decision
			if d == nil {
				return info, fmt.Errorf("batch item %d failed: %s", i, resp.Decisions[i].Error)
			}
			// Index alignment: slot i must describe item i's matrix.
			if f := rq.operands[i].feats; d.Features.M != f.M || d.Features.N != f.N || d.Features.NNZ != f.NNZ {
				return info, fmt.Errorf("batch slot %d describes a %dx%d matrix, item %d is %dx%d", i, d.Features.M, d.Features.N, i, f.M, f.N)
			}
			if err := rq.checkDecision(i, d, learn, &info); err != nil {
				return info, fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return info, nil
	case epSpGEMM:
		var resp serve.SpGEMMResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			return info, fmt.Errorf("undecodable reply: %w", err)
		}
		d := &resp.Decision
		info.traceID = d.TraceID
		c, err := spgemm.ParseCandidate(d.Chosen)
		if err != nil || !spgemm.Supported(c) {
			return info, fmt.Errorf("unknown or unsupported spgemm candidate %q", d.Chosen)
		}
		if d.Dataflow != c.Dataflow.String() {
			return info, fmt.Errorf("dataflow %q does not match candidate %q", d.Dataflow, d.Chosen)
		}
		if d.Source == "measured" {
			// Measurements come fastest first; the choice must be one
			// of the candidates that share the fastest time.
			fastest := false
			for _, m := range d.Measured {
				fastest = fastest || (m.Candidate == d.Chosen && m.Nanos == d.Measured[0].Nanos)
			}
			if !fastest {
				return info, fmt.Errorf("measured decision chose %s, which is not among its fastest measurements", d.Chosen)
			}
		}
		return info, rq.settle(0, answer{chosen: d.Chosen}, d.Source, len(d.Measured), d.Degraded, learn, &info)
	}
	return info, fmt.Errorf("request has no endpoint")
}

func (rq *request) checkDecision(i int, d *serve.DecisionJSON, learn bool, info *replyInfo) error {
	if _, err := sparse.ParseCandidate(d.Chosen + "/" + d.Chunk + "/" + d.Variant); err != nil {
		return fmt.Errorf("unknown candidate: %w", err)
	}
	if d.Source == "measured" {
		// Measurements come fastest first; the choice must be one of the
		// candidates that share the fastest time.
		fastest := false
		for _, m := range d.Measured {
			fastest = fastest || (m.Format == d.Chosen && m.Chunk == d.Chunk && m.Variant == d.Variant && m.Nanos == d.Measured[0].Nanos)
		}
		if !fastest {
			return fmt.Errorf("chose %s/%s/%s, which is not among the fastest measurements", d.Chosen, d.Chunk, d.Variant)
		}
	}
	return rq.settle(i, answer{d.Chosen, d.Chunk, d.Variant}, d.Source, len(d.Measured), d.Degraded, learn, info)
}

// settle applies the checks every decision shares and folds the decision
// into the op's reply info.
func (rq *request) settle(i int, got answer, source string, measured int, degraded, learn bool, info *replyInfo) error {
	si := sourceIndex(source)
	if si < 0 {
		return fmt.Errorf("unknown decision source %q", source)
	}
	if degraded {
		info.degraded++
		return fmt.Errorf("degraded decision (measurement path failing)")
	}
	switch want := rq.want[i]; {
	case want == answer{}:
		if learn {
			rq.want[i] = got
		}
	case got != want:
		return fmt.Errorf("answered %v, this class's first answer was %v", got, want)
	}
	// An op is as cached as its least cached decision.
	if info.source < 0 || (si != 0 && info.source == 0) {
		info.source = si
	}
	if source == "measured" {
		info.measured += measured
	}
	return nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// send performs one real request and folds its outcome into an op record.
func send(cl *httpClient, base string, rq *request, ref int, learn bool) op {
	status, reply, start, lat, err := cl.post(base+endpointPaths[rq.endpoint], rq.body)
	o := op{start: start, lat: lat, endpoint: uint8(rq.endpoint), status: int16(status), source: -1, bytes: int32(len(rq.body)), ref: int32(ref)}
	if err != nil {
		o.err = "transport: " + err.Error()
		return o
	}
	info, err := rq.check(status, reply, learn)
	o.source = int8(info.source)
	o.measured = uint16(info.measured)
	o.degraded = info.degraded > 0
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// handlerBox lets serve_cold replace the server behind a live listener, so
// a fresh server is first contact for the deck while the clients keep
// their connections.
type handlerBox struct{ p atomic.Pointer[http.Handler] }

func (b *handlerBox) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*b.p.Load()).ServeHTTP(w, r) }
func (b *handlerBox) set(h http.Handler)                               { b.p.Store(&h) }

// node is one in-process layoutd: a real serve.Server behind a real
// loopback listener, built from the public API the way cmd/layoutd does.
type node struct {
	id    string
	url   string
	srv   *serve.Server
	box   *handlerBox
	hs    *httptest.Server
	peers *cluster.Peers // nil single-node
	store *online.Store  // the flywheel's harvest store, fed by Config.Harvest
	stats *exec.Stats
	// retired holds the measurement count of servers reset has replaced.
	retired int64
}

// nodeConfig is the configuration every benchmark server runs: the
// daemon's defaults (hybrid policy, 4 measurement slots) with harvesting
// and model distribution wired like cmd/layoutd -online.
func nodeConfig(store *online.Store, stats *exec.Stats, peers *cluster.Peers) serve.Config {
	return serve.Config{
		Policy:  core.Hybrid,
		Stats:   stats,
		Cluster: peers,
		Harvest: func(r online.Record) { _ = store.Add(r) }, // a rejected record is counted by the store
		ModelLoader: func(b []byte) (core.FormatPredictor, error) {
			return learn.Load(bytes.NewReader(b))
		},
		PairModelLoader: func(b []byte) (core.PairPredictor, error) {
			return learn.LoadPair(bytes.NewReader(b))
		},
	}
}

// startNode serves a new server on ln.
func startNode(id string, ln net.Listener, peers *cluster.Peers) *node {
	n := &node{id: id, url: "http://" + ln.Addr().String(), box: &handlerBox{}, peers: peers,
		store: online.NewStore(8192, nil), stats: &exec.Stats{}}
	n.reset()
	n.hs = &httptest.Server{Listener: ln, Config: &http.Server{Handler: n.box}}
	n.hs.Start()
	return n
}

// reset swaps in a server with an empty cache, history and pair history.
func (n *node) reset() {
	if n.srv != nil {
		n.retired += n.srv.Measurements() + n.srv.SpGEMMMeasurements()
	}
	n.srv = serve.NewServer(nodeConfig(n.store, n.stats, n.peers))
	n.box.set(n.srv.Handler())
}

func (n *node) close() {
	if n.peers != nil {
		n.peers.Stop()
	}
	n.hs.Close()
	n.srv.Drain()
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serverCounters is the server-side work done so far, for window deltas.
type serverCounters struct {
	measurements  int64
	harvested     int64
	smsvCalls     int64
	smsvElems     int64
	forwards      int64
	forwardErrors int64
	replEnqueued  int64
	replDropped   int64
}

func (n *node) counters() serverCounters {
	smsv, pr, _, _ := n.store.Counters()
	t := n.stats.Total()
	c := serverCounters{
		measurements: n.retired + n.srv.Measurements() + n.srv.SpGEMMMeasurements(),
		harvested:    smsv + pr,
		smsvCalls:    t.Calls,
		smsvElems:    t.Elements,
	}
	if n.peers != nil {
		st := n.peers.ReplicatorStats()
		c.forwards, c.forwardErrors = n.peers.Forwards(), n.peers.ForwardErrors()
		c.replEnqueued, c.replDropped = st.Enqueued, st.Dropped
	}
	return c
}

// combine applies f field by field.
func (a serverCounters) combine(b serverCounters, f func(x, y int64) int64) serverCounters {
	return serverCounters{
		f(a.measurements, b.measurements), f(a.harvested, b.harvested),
		f(a.smsvCalls, b.smsvCalls), f(a.smsvElems, b.smsvElems),
		f(a.forwards, b.forwards), f(a.forwardErrors, b.forwardErrors),
		f(a.replEnqueued, b.replEnqueued), f(a.replDropped, b.replDropped),
	}
}

func (a serverCounters) sub(b serverCounters) serverCounters {
	return a.combine(b, func(x, y int64) int64 { return x - y })
}

func (a serverCounters) add(b serverCounters) serverCounters {
	return a.combine(b, func(x, y int64) int64 { return x + y })
}

var policies = map[string]core.Policy{
	"rule-based": core.RuleBased, "empirical": core.Empirical, "hybrid": core.Hybrid, "predict": core.PolicyPredict,
}

// replayer re-runs the stages of a served op through the layers' exported
// functions on objects the harness owns. Replayed stages approximate the
// time spent in situ (warm caches, no concurrent client); the in-program
// spans a later issue adds replace them under the same names.
type replayer struct {
	tr   *tracer
	ring *cluster.Ring // nil on a single node
	// handler returns the in-process handler that stands for the server
	// the op hit: the live one where state matters, a fresh one for a
	// first contact.
	handler func(o *op) http.Handler
	// forward sends the body one hop to the ring owner, as the target
	// node's forwarder does; nil on a single node.
	forward func(o *op, rq *request) (time.Duration, error)
	cache   *serve.Cache[*serve.CachedDecision]
	spCache *serve.Cache[*serve.CachedPairDecision]

	handlerBy [numEndpoints][]time.Duration
	rtt       []time.Duration // request minus handler: client + loopback
	staged    []int           // handler spans whose stages were all replayed
	parseB    int64           // bytes through the parse stage
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{tr: tr,
		cache:   serve.NewCache[*serve.CachedDecision](0, 0),
		spCache: serve.NewCache[*serve.CachedPairDecision](0, 0)}
}

// replayHandler records the top of one op's span tree: the real request as
// the root and the in-process handler on the same body under it. It
// returns the handler span and the reply it produced. The handlers of all
// sampled ops are replayed back to back before any stage, so they run as
// warm as the server ran under load.
func (rp *replayer) replayHandler(opID int, o *op, rq *request) (hs int, reply []byte, err error) {
	root := rp.tr.root(spRequest, o.start, o.lat, opID)
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, endpointPaths[rq.endpoint], bytes.NewReader(rq.body))
	h := rp.handler(o)
	t0 := time.Now()
	h.ServeHTTP(rec, hreq)
	hd := time.Since(t0)
	if rec.Code != http.StatusOK {
		return 0, nil, fmt.Errorf("replayed handler answered %d: %s", rec.Code, firstLine(rec.Body.Bytes()))
	}
	rp.handlerBy[rq.endpoint] = append(rp.handlerBy[rq.endpoint], hd)
	rp.rtt = append(rp.rtt, o.lat-hd)
	return rp.tr.child(root, spHandler, hd), rec.Body.Bytes(), nil
}

// replayStages records the handler's stages under its span hs.
func (rp *replayer) replayStages(hs int, o *op, rq *request, reply []byte) error {
	tr := rp.tr
	// decode: the JSON envelope, as serve.decodeBody reads it.
	var sreq serve.ScheduleRequest
	var breq serve.BatchScheduleRequest
	var preq serve.SpGEMMRequest
	var derr error
	tr.stage(hs, spDecode, func() {
		dec := json.NewDecoder(bytes.NewReader(rq.body))
		dec.DisallowUnknownFields()
		switch rq.endpoint {
		case epSchedule:
			derr = dec.Decode(&sreq)
		case epBatch:
			derr = dec.Decode(&breq)
		case epSpGEMM:
			derr = dec.Decode(&preq)
		}
	})
	if derr != nil {
		return derr
	}

	// parse and extract, once per operand.
	builders := make([]*sparse.Builder, len(rq.operands))
	feats := make([]dataset.Features, len(rq.operands))
	for i, mx := range rq.operands {
		var perr error
		tr.stage(hs, spParse, func() {
			samples, n, err := dataset.ParseLIBSVM(strings.NewReader(mx.data))
			if err != nil {
				perr = err
				return
			}
			builders[i], _ = dataset.SamplesToMatrix(samples, n)
		})
		if perr != nil {
			return perr
		}
		rp.parseB += int64(len(mx.data))
		tr.stage(hs, spExtract, func() {
			csr, err := builders[i].Build(sparse.CSR)
			if err != nil {
				perr = err
				return
			}
			feats[i] = dataset.Extract(csr)
		})
		if perr != nil {
			return perr
		}
	}

	// route and cache, once per decision.
	cached := o.source == 0
	var key []byte
	decisions := len(rq.want)
	for i := 0; i < decisions; i++ {
		tr.stage(hs, spRoute, func() {
			if rq.endpoint == epSpGEMM {
				key = serve.AppendPairKey(key[:0], feats[0], feats[1], rq.policy, 0)
			} else {
				key = serve.AppendKey(key[:0], feats[i], rq.policy, 0)
			}
			if rp.ring != nil {
				rp.ring.Owner(key)
			}
		})
		if rq.endpoint == epSpGEMM {
			if cached {
				rp.spCache.Put(string(key), &serve.CachedPairDecision{})
			}
			tr.stage(hs, spCache, func() { rp.spCache.Get(key) })
		} else {
			if cached {
				rp.cache.Put(string(key), &serve.CachedDecision{})
			}
			tr.stage(hs, spCache, func() { rp.cache.Get(key) })
		}
	}

	if o.forwarded && rp.forward != nil {
		d, err := rp.forward(o, rq)
		if err != nil {
			return err
		}
		tr.child(hs, spForward, d)
	} else if !cached {
		if err := rp.decide(hs, o, rq, builders, feats, reply); err != nil {
			return err
		}
	}

	// encode: the reply struct back to indented JSON, as serve.writeJSON.
	var decoded any
	switch rq.endpoint {
	case epSchedule:
		decoded = new(serve.ScheduleResponse)
	case epBatch:
		decoded = new(serve.BatchScheduleResponse)
	case epSpGEMM:
		decoded = new(serve.SpGEMMResponse)
	}
	if err := json.Unmarshal(reply, decoded); err != nil {
		return err
	}
	tr.stage(hs, spEncode, func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		derr = enc.Encode(decoded)
	})
	rp.staged = append(rp.staged, hs)
	return derr
}

// decide replays the scheduler call behind a non-cached decision with a
// scheduler of the op's policy: on an empty history for a measured
// decision, on a history that already holds the shape for a reused one.
func (rp *replayer) decide(parent int, o *op, rq *request, builders []*sparse.Builder, feats []dataset.Features, reply []byte) error {
	policy, ok := policies[rq.policy]
	if !ok {
		return fmt.Errorf("replay: unknown policy %q", rq.policy)
	}
	ctx := context.Background()
	reused := sourceNames[o.source] == "history"
	var err error
	if rq.endpoint == epSpGEMM {
		hist := &core.PairHistory{}
		if reused {
			var resp serve.SpGEMMResponse
			if err := json.Unmarshal(reply, &resp); err != nil {
				return err
			}
			c, err := spgemm.ParseCandidate(resp.Decision.Chosen)
			if err != nil {
				return err
			}
			hist.RecordCandidate(feats[0], feats[1], c)
		}
		sched := core.NewSpGEMM(core.SpGEMMConfig{Policy: policy, History: hist})
		rp.tr.stage(parent, spDecide, func() {
			var d *core.SpGEMMDecision
			if d, err = sched.ChooseContext(ctx, builders[0], builders[1]); err == nil {
				d.Release()
			}
		})
		return err
	}
	for i, b := range builders {
		hist := &core.History{}
		if reused {
			hist.RecordCandidate(feats[i], sparse.BaseCandidate(sparse.CSR))
		}
		sched := core.New(core.Config{Policy: policy, History: hist})
		rp.tr.stage(parent, spDecide, func() {
			var d *core.Decision
			if d, err = sched.ChooseContext(ctx, b); err == nil {
				d.Release()
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// sampleOps picks up to n ops of w, evenly spaced so every phase of the
// window and every endpoint in the mix is represented.
func sampleOps(w *window, n int) []int {
	var good []int
	for i := range w.ops {
		if w.ops[i].err == "" {
			good = append(good, i)
		}
	}
	if len(good) <= n {
		return good
	}
	out := make([]int, n)
	for k := range out {
		out[k] = good[k*len(good)/n]
	}
	return out
}
