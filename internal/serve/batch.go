package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// MaxBatchItems is the default cap on one /v1/schedule/batch request
// (Config.MaxBatch overrides it): enough to amortize the HTTP round trip
// and the pooled scratch over a realistic shard sweep, small enough that
// one batch cannot monopolize the measurement admission slots for the
// daemon's lifetime.
const MaxBatchItems = 64

// batchScratch is one request's reusable workspace: the buffer its body is
// read into, a batch's decoded items, the cache-key buffer, the triplet
// builder inline LIBSVM rows land in, the one-pass accumulator that reads
// them, the buffer a forward hop's rows leg is encoded in, and the reply
// half — the buffer the 200 reply is appended into, the trace lines it will
// carry and the estimates block of a single decision.
// Pooled so a warm server reads, decodes, parses, keys, decides and answers
// with no per-request garbage; ownership follows the handler — Get at
// entry, Put on return, never retained past the response, and with it die
// the envelope's views into body and every reply field that views the
// scratch. Items within one batch are decided
// sequentially, so a single builder is safe: by the time item i+1 parses,
// item i's measurement (if any) has finished and its decision holds no
// reference to the builder's arrays.
type batchScratch struct {
	body  bytes.Buffer
	items []envelope
	key   []byte
	b     *sparse.Builder
	acc   dataset.Accumulator

	fwd wire // a forwarded request's rows, re-encoded for the owner

	out       wire                // the reply, written once when it is whole
	trace     traceLines          // the current decision's "trace" elements
	ests      []core.Estimate     // a single decision's cost-model rows ...
	estsJ     []EstimateJSON      // ... and their wire form, viewed by its reply
	pairEsts  []core.PairEstimate // likewise for an SpGEMM decision
	pairEstsJ []PairEstimateJSON
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{key: make([]byte, 0, 96), b: sparse.NewBuilder(1, 1)}
}}

func getScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// putScratch returns sc to the pool. It is the one place that knows no
// matrix the request built is reachable any more — decisions are released,
// and what outlives the request (cache entries, gossip, history, harvest
// records) holds candidates, times and features only — so its builder
// recycles them: the next request on this scratch constructs its candidates
// into their storage. What a builder keeps is bounded (sparse.Builder.Recycle),
// so a dense candidate of hundreds of MiB is still given back here, not
// whenever the pool is next drained.
func putScratch(sc *batchScratch) {
	sc.b.Recycle()
	batchScratchPool.Put(sc)
}

// badRequest marks an error as the caller's mistake: writeScheduleError
// answers it with 400 where a scheduler failure maps to 429/5xx.
type badRequest struct{ error }

// parse reads inline LIBSVM rows in one pass: their triplets into the
// scratch builder, for a measurement to materialize if the decision misses,
// and their Table IV features — the one parse step behind every endpoint
// that takes rows. n is the feature count the rows declare (feats.N is
// never below 1).
func (sc *batchScratch) parse(data []byte) (feats dataset.Features, n int, err error) {
	feats, n, err = sc.acc.ParseLIBSVM(data, sc.b)
	if err == nil && feats.M == 0 {
		err = core.ErrEmptyMatrix
	}
	return feats, n, err
}

// resolve enforces "exactly one of profile or data" and yields the
// request's features: a profile's as sent, inline rows' by parsing them into
// the scratch builder under a request.parse span (inline reports which).
// Every error is the caller's.
func (sc *batchScratch) resolve(ctx context.Context, profile *FeaturesJSON, data []byte) (feats dataset.Features, n int, inline bool, err error) {
	switch {
	case profile != nil && len(data) != 0:
		err = errors.New("give either profile or data, not both")
	case profile != nil:
		if feats = profile.Features(); feats.M <= 0 || feats.N <= 0 {
			err = core.ErrEmptyMatrix
		}
	case len(data) != 0:
		inline = true
		psp := telemetry.StartLeaf(ctx, "request.parse")
		if feats, n, err = sc.parse(data); err == nil {
			psp.Annotate(telemetry.Int("rows", feats.M), telemetry.Int("features", n))
		}
		psp.EndErr(err)
	default:
		err = errors.New("give a profile or inline LIBSVM data")
	}
	if err != nil {
		err = badRequest{err}
	}
	return feats, n, inline, err
}

// peerReply is the ring owner's answer to a forward's rows leg, undecoded:
// the single endpoints relay it byte for byte, a batch slot decodes it.
type peerReply struct {
	peer   string
	status int
	body   []byte
}

// result decodes the reply into a batch slot: the owner's decision, or the
// message that fails the slot.
func (p *peerReply) result() (DecisionJSON, string) {
	if p.status == http.StatusOK {
		var resp ScheduleResponse
		if err := json.Unmarshal(p.body, &resp); err != nil {
			return DecisionJSON{}, fmt.Sprintf("peer %s sent an undecodable reply: %v", p.peer, err)
		}
		return resp.Decision, ""
	}
	var er ErrorResponse
	if err := json.Unmarshal(p.body, &er); err != nil || er.Error == "" {
		return DecisionJSON{}, fmt.Sprintf("peer %s returned %d", p.peer, p.status)
	}
	return DecisionJSON{}, er.Error
}

// scheduled is one schedule body's outcome on its way to a reply.
type scheduled struct {
	d DecisionJSON
	// measured is d's "measured" array as the decision's cache entry
	// rendered it — here, or on the ring owner that answered from its cache;
	// nil when the decision came from anywhere else.
	measured []byte
	// peer is set instead of d when the ring owner decided from the rows.
	peer *peerReply
}

// scheduleOne is the one schedule path: /v1/schedule is a batch of one, and
// it and every batch item decide here over a pooled scratch. A profile gets
// the rule-based cost model; inline rows are parsed, keyed by shape class,
// and answered by the ring owner's cache, the ring owner from the rows (the
// reply comes back undecoded), the local decision cache, or a measurement
// under admission control. A decision from either cache is rendered here,
// from this request's own features. explain asks for the human-readable
// account a single response carries — the trace lines, noted into
// sc.trace, and the estimates block, which views the scratch; without it
// the steady state allocates nothing the reply does not keep.
func (s *Server) scheduleOne(ctx context.Context, sc *batchScratch, req *envelope, policy core.Policy, explain bool) (scheduled, error) {
	sc.trace.reset()
	feats, n, inline, err := sc.resolve(ctx, req.profile, req.data)
	if err != nil {
		return scheduled{}, err
	}
	if !inline {
		return scheduled{d: s.profileDecision(ctx, feats, *req.profile)}, nil
	}
	if err := inlineCapError(feats); err != nil {
		return scheduled{}, badRequest{fmt.Errorf("%v; send a profile-only request for shapes this large", err)}
	}
	// Lines are noted only for a reply that will carry them.
	var trace *traceLines
	if explain {
		trace = &sc.trace
		trace.text("parsed ").int(feats.M).text(" LIBSVM rows, ").int(n).text(" features").end()
	}

	if policy == core.RuleBased {
		// Pure model decision: nothing to measure, nothing worth caching.
		t0 := time.Now()
		dec, err := s.scheds[policy].ChooseContext(ctx, sc.b)
		if err != nil {
			return scheduled{}, err
		}
		s.observeDecision(ctx, time.Since(t0))
		dj := NewDecisionJSON(dec)
		dec.Release()
		dj.TraceID = contextTraceID(ctx)
		if trace != nil {
			trace.text("rule-based policy: model decision, no measurement").end()
		}
		return scheduled{d: dj}, nil
	}

	sc.key = AppendKey(sc.key[:0], feats, policy.String(), s.cfg.TopK)
	r, err := decideRouted(ctx, s, &s.smsv, policy, sc.key, smsvIn{b: sc.b, feats: feats}, trace, "/v1/schedule",
		func() []byte {
			// Policy pinned — it may be the batch's or the server's default —
			// so the owner resolves the request exactly as this node did.
			sc.fwd.scheduleBody(req.data, policy.String())
			return bytes.Clone(sc.fwd.b)
		})
	switch {
	case err != nil:
		return scheduled{}, err
	case r.peer != nil:
		return scheduled{peer: r.peer}, nil
	}
	val := r.val
	out := scheduled{d: DecisionJSON{
		Policy:     policy.String(),
		Chosen:     val.Candidate.Format.String(),
		Chunk:      val.Candidate.Chunk.String(),
		Variant:    val.Candidate.Variant.String(),
		Features:   NewFeaturesJSON(feats),
		Source:     val.Rung.String(),
		Confidence: val.Confidence,
		Degraded:   val.Degraded,
		TraceID:    contextTraceID(ctx),
	}}
	out.d.Measured, out.measured = val.evidence()
	if r.outcome != "miss" {
		// Anything but a fresh computation reports the cache.
		out.d.Source = "cache"
	}
	if trace != nil {
		noteDecide(s, trace, s.smsv.classNoun, sc.key, r.outcome, val, val.Candidate.Format.String(), policy)
		sc.ests = core.AppendEstimates(sc.ests[:0], feats)
		sc.estsJ = appendEstimates(sc.estsJ[:0], sc.ests)
		out.d.Estimates = sc.estsJ
	}
	return out, nil
}

// handleScheduleBatch answers POST /v1/schedule/batch: up to MaxBatchItems
// schedule items decided under one request body, one shared decision trace,
// and one pooled scratch pass. A bad item (unparseable data, unknown
// policy, over the inline cap) fails alone in its slot; only a malformed
// envelope fails the batch.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	sc := getScratch()
	defer putScratch(sc)
	env, ok := decodeEnvelope[BatchScheduleRequest](s, sc, w, r, batchFields)
	if !ok {
		return
	}
	items := env.items
	if len(items) == 0 {
		writeError(w, http.StatusBadRequest, "items is empty")
		return
	}
	if len(items) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"batch of %d items exceeds the %d-item cap; split the request", len(items), s.cfg.MaxBatch))
		return
	}
	if _, err := s.policyFor(env.policy); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	r = s.acceptForwarded(r)
	// One trace for the whole batch: every item's scheduling spans nest
	// under it, so a slow batch can be read as one tree.
	ctx, tr, root := s.joinOrStartTrace(r, "schedule.batch",
		telemetry.Int("items", len(items)))
	setTraceID(w, tr.ID)
	defer s.endTrace(w, tr, root, nil)
	sc.out.batchOpen()
	for i := range items {
		res, errMsg := s.scheduleItem(ctx, sc, &items[i], env.policy, i)
		sc.out.batchItem(i, &res.d, rendered{measured: res.measured}, errMsg)
	}
	sc.out.batchClose(tr.ID)
	writeReply(w, &sc.out)
}

// ScheduleBatch decides every item of req in order, sharing one pooled
// scratch workspace across items. Exported so embedders and benchmarks can
// drive the batched hot path without HTTP. Decisions[i] answers Items[i];
// per-item failures land in that slot's Error. A decision's Measured rows
// are its cache entry's, shared with every other reply that reports the
// entry: read them, do not modify them. (A decision a ring owner answered
// from its cache arrives as the rendered array only, and is decoded here.)
func (s *Server) ScheduleBatch(ctx context.Context, req *BatchScheduleRequest) BatchScheduleResponse {
	sc := getScratch()
	defer putScratch(sc)
	env := req.envelope()
	out := BatchScheduleResponse{
		Decisions: make([]BatchItemResult, len(env.items)),
		TraceID:   contextTraceID(ctx),
	}
	for i := range env.items {
		res, errMsg := s.scheduleItem(ctx, sc, &env.items[i], env.policy, i)
		if errMsg == "" && res.d.Measured == nil && len(res.measured) > 0 {
			if err := json.Unmarshal(res.measured, &res.d.Measured); err != nil {
				errMsg = fmt.Sprintf("unreadable measured evidence: %v", err)
			}
		}
		if errMsg != "" {
			out.Decisions[i].Error = errMsg
		} else {
			out.Decisions[i].Decision = &res.d
		}
	}
	return out
}

// scheduleItem decides item i under its trace span, resolving its effective
// policy (item override → batch default → server default). A non-empty
// message fails the item alone; a ring owner's answer comes back decoded.
func (s *Server) scheduleItem(ctx context.Context, sc *batchScratch, item *envelope, batchPolicy string, i int) (res scheduled, errMsg string) {
	ctx, isp := telemetry.StartSpan(ctx, "batch.item", telemetry.Int("index", i))
	name := item.policy
	if name == "" {
		name = batchPolicy
	}
	policy, err := s.schedulePolicy(name)
	if err == nil {
		res, err = s.scheduleOne(ctx, sc, item, policy, false)
	}
	switch {
	case err != nil:
		errMsg = err.Error()
	case res.peer != nil:
		res.d, errMsg = res.peer.result()
	}
	if errMsg != "" {
		isp.Annotate(telemetry.String("error", errMsg))
	} else {
		isp.Annotate(telemetry.String("chosen", res.d.Chosen),
			telemetry.String("source", res.d.Source))
	}
	isp.End()
	return res, errMsg
}
