package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"

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

// batchScratch is one batch's reusable workspace: the cache-key buffer, the
// triplet builder every inline item is parsed into, and the feature
// extractor with its row scratch. Pooled so a warm server keys and decides
// N cached items with no per-item garbage; ownership follows ScheduleBatch
// — Get at entry, Put on return, never retained past the response. Items
// within one batch are decided sequentially, so a single builder is safe:
// by the time item i+1 parses, item i's measurement (if any) has finished
// and its decision holds no reference to the builder's arrays.
type batchScratch struct {
	key []byte
	b   *sparse.Builder
	ex  dataset.Extractor
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{key: make([]byte, 0, 96), b: sparse.NewBuilder(1, 1)}
}}

// handleScheduleBatch answers POST /v1/schedule/batch: up to MaxBatchItems
// schedule items decided under one request body, one shared decision trace,
// and one pooled scratch pass. A bad item (unparseable data, unknown
// policy, over the inline cap) fails alone in its slot; only a malformed
// envelope fails the batch.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchScheduleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "items is empty")
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"batch of %d items exceeds the %d-item cap; split the request", len(req.Items), s.cfg.MaxBatch))
		return
	}
	if req.Policy != "" {
		if _, err := parsePolicy(req.Policy); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	r = s.acceptForwarded(r)
	// One trace for the whole batch: every item's scheduling spans nest
	// under it, so a slow batch can be read as one tree.
	ctx, tr, root := s.joinOrStartTrace(r, "schedule.batch",
		telemetry.Int("items", len(req.Items)))
	setTraceID(w, tr.ID)
	defer s.endTrace(tr, root, nil)
	writeJSON(w, http.StatusOK, s.ScheduleBatch(ctx, &req))
}

// ScheduleBatch decides every item of req in order, sharing one pooled
// scratch workspace across items. Exported so embedders and benchmarks can
// drive the batched hot path without HTTP. Decisions[i] answers Items[i];
// per-item failures land in that slot's Error.
func (s *Server) ScheduleBatch(ctx context.Context, req *BatchScheduleRequest) BatchScheduleResponse {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	out := BatchScheduleResponse{
		Decisions: make([]BatchItemResult, len(req.Items)),
		TraceID:   contextTraceID(ctx),
	}
	for i := range req.Items {
		out.Decisions[i] = s.scheduleItem(ctx, sc, req, i)
	}
	return out
}

// scheduleItem wraps one item's decision in its trace span.
func (s *Server) scheduleItem(ctx context.Context, sc *batchScratch, req *BatchScheduleRequest, i int) BatchItemResult {
	ictx := ctx
	var isp *telemetry.Span
	if telemetry.ContextTrace(ctx) != nil {
		ictx, isp = telemetry.StartSpan(ctx, "batch.item", telemetry.Int("index", i))
	}
	res := s.scheduleItemInner(ictx, sc, req, &req.Items[i])
	if isp != nil {
		if res.Error != "" {
			isp.Annotate(telemetry.String("error", res.Error))
		} else {
			isp.Annotate(telemetry.String("chosen", res.Decision.Chosen),
				telemetry.String("source", res.Decision.Source))
		}
		isp.End()
	}
	return res
}

// scheduleItemInner resolves the item's effective policy (item override →
// batch default → server default) and dispatches to the profile or
// inline-data path.
func (s *Server) scheduleItemInner(ctx context.Context, sc *batchScratch, req *BatchScheduleRequest, item *ScheduleRequest) BatchItemResult {
	name := item.Policy
	if name == "" {
		name = req.Policy
	}
	policy, err := s.policyFor(name)
	if err != nil {
		return BatchItemResult{Error: err.Error()}
	}
	if policy == core.PolicyPredict && !s.predictor.Loaded() {
		return BatchItemResult{Error: "predict policy needs a trained model (start layoutd with -predictor)"}
	}
	switch {
	case item.Profile != nil && item.Data != "":
		return BatchItemResult{Error: "give either profile or data, not both"}
	case item.Profile != nil:
		f := item.Profile.Features()
		if f.M <= 0 || f.N <= 0 {
			return BatchItemResult{Error: core.ErrEmptyMatrix.Error()}
		}
		d := s.profileDecision(ctx, f, *item.Profile)
		return BatchItemResult{Decision: &d}
	case item.Data != "":
		return s.scheduleItemData(ctx, sc, item, policy)
	default:
		return BatchItemResult{Error: "give a profile or inline LIBSVM data"}
	}
}

// scheduleItemData is the batch twin of scheduleData: parse into the pooled
// builder, key from the pooled buffer, decide through the shared cache
// machinery. On the steady-state path — every item's shape class already
// cached — the whole body allocates only the DecisionJSON that the response
// must own.
func (s *Server) scheduleItemData(ctx context.Context, sc *batchScratch, item *ScheduleRequest, policy core.Policy) BatchItemResult {
	samples, n, err := dataset.ParseLIBSVM(strings.NewReader(item.Data))
	if err != nil {
		return BatchItemResult{Error: err.Error()}
	}
	if len(samples) == 0 {
		return BatchItemResult{Error: core.ErrEmptyMatrix.Error()}
	}
	if n < 1 {
		n = 1
	}
	sc.b.Reset(max(len(samples), 1), n)
	for i, smp := range samples {
		sc.b.AddRow(i, smp.Features)
	}
	csr, err := sc.b.Build(sparse.CSR)
	if err != nil {
		return BatchItemResult{Error: fmt.Sprintf("unbuildable matrix: %v", err)}
	}
	feats := sc.ex.Extract(csr)
	if err := inlineCapError(feats); err != nil {
		return BatchItemResult{Error: err.Error() + "; send a profile-only item for shapes this large"}
	}

	if policy == core.RuleBased {
		// Pure model decision: nothing to measure, nothing worth caching.
		dec, err := s.scheds[policy].ChooseContext(ctx, sc.b)
		if err != nil {
			return BatchItemResult{Error: err.Error()}
		}
		dj := NewDecisionJSON(dec)
		dec.Release()
		dj.TraceID = contextTraceID(ctx)
		return BatchItemResult{Decision: &dj}
	}

	sc.key = AppendKey(sc.key[:0], feats, policy.String(), s.cfg.TopK)
	if m, owned := routeOwner(ctx, s, s.smsv.cache, sc.key); owned {
		if res, answered := s.forwardItem(ctx, item, policy, m); answered {
			return res
		}
		s.forwardFallbacks.Add(1)
	}
	val, outcome, err := decide(ctx, s, &s.smsv, policy, sc.key, smsvIn{b: sc.b, feats: feats})
	if err != nil {
		return BatchItemResult{Error: err.Error()}
	}
	d := decidedJSON(ctx, policy, feats, val, outcome)
	return BatchItemResult{Decision: &d}
}
