package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/online"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

// This file is the SpGEMM side of the serving layer: POST
// /v1/schedule/spgemm decides a dataflow × format-pair candidate for an
// A×B sparse product. The handler shell, the JSON types and the workload's
// entries in the decide pipeline (decide.go) live here; the pipeline itself
// — cache, singleflight, breaker, admission, routing, gossip — is shared
// with the SMSV endpoint.

// SpGEMMRequest is the /v1/schedule/spgemm body: both operands as inline
// LIBSVM rows (A is m×k, B is k×n; A's column count must equal B's row
// count after parsing).
type SpGEMMRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	// Policy optionally overrides the server's default decision policy:
	// "rule-based", "empirical", "hybrid", or "predict".
	Policy string `json:"policy,omitempty"`
}

// PairEstimateJSON is one SpGEMM candidate's modeled cost.
type PairEstimateJSON struct {
	Candidate string  `json:"candidate"`
	Dataflow  string  `json:"dataflow"`
	AFormat   string  `json:"a_format"`
	BFormat   string  `json:"b_format"`
	Cost      float64 `json:"cost"`
}

// PairMeasurementJSON is one SpGEMM candidate's measured product time: its
// fastest timed product in the decision, as MeasurementJSON's.
type PairMeasurementJSON struct {
	Candidate string  `json:"candidate"`
	Nanos     int64   `json:"nanos"`
	Millis    float64 `json:"millis"`
}

// SpGEMMDecisionJSON is the machine-readable dataflow decision shared by
// the layoutd /v1/schedule/spgemm response and the layoutsched spgemm
// subcommand's -json flag.
type SpGEMMDecisionJSON struct {
	Policy string `json:"policy"`
	// Chosen is the full candidate ("dataflow/AFORMAT/BFORMAT"); the three
	// component fields break it out for callers that materialize layouts.
	Chosen    string       `json:"chosen"`
	Dataflow  string       `json:"dataflow"`
	AFormat   string       `json:"a_format"`
	BFormat   string       `json:"b_format"`
	AFeatures FeaturesJSON `json:"a_features"`
	BFeatures FeaturesJSON `json:"b_features"`
	// Source mirrors DecisionJSON.Source: "model", "measured", "history",
	// "predictor", or "cache".
	Source     string  `json:"source"`
	Confidence float64 `json:"confidence,omitempty"`
	// EstimatedNNZ is the probabilistic output-size estimate; OutputNNZ is
	// the product's true entry count when the decision measured.
	EstimatedNNZ float64               `json:"estimated_nnz,omitempty"`
	OutputNNZ    int64                 `json:"output_nnz,omitempty"`
	Estimates    []PairEstimateJSON    `json:"estimates"`
	Measured     []PairMeasurementJSON `json:"measured,omitempty"` // ascending time
	Degraded     bool                  `json:"degraded,omitempty"`
	TraceID      string                `json:"trace_id,omitempty"`
	Trace        []string              `json:"trace,omitempty"`
}

// SpGEMMResponse is the /v1/schedule/spgemm reply.
type SpGEMMResponse struct {
	Decision SpGEMMDecisionJSON `json:"decision"`
}

// NewSpGEMMDecisionJSON encodes a core SpGEMM decision; the measured block
// is sorted by ascending time so the first entry is the empirical winner.
func NewSpGEMMDecisionJSON(d *core.SpGEMMDecision) SpGEMMDecisionJSON {
	out := SpGEMMDecisionJSON{
		Policy:       d.Policy.String(),
		Chosen:       d.Chosen.String(),
		Dataflow:     d.Chosen.Dataflow.String(),
		AFormat:      d.Chosen.AFormat.String(),
		BFormat:      d.Chosen.BFormat.String(),
		AFeatures:    NewFeaturesJSON(d.AFeatures),
		BFeatures:    NewFeaturesJSON(d.BFeatures),
		Source:       d.Rung.String(),
		Confidence:   d.Confidence,
		EstimatedNNZ: d.EstimatedNNZ,
		OutputNNZ:    d.OutputNNZ,
	}
	out.Estimates = encodePairEstimates(d.Estimates)
	out.Measured = encodeMeasured[spgemm.Candidate, PairMeasurementJSON](d.Measured)
	return out
}

func (PairMeasurementJSON) measured(c spgemm.Candidate, t time.Duration) PairMeasurementJSON {
	return PairMeasurementJSON{
		Candidate: c.String(),
		Nanos:     int64(t),
		Millis:    float64(t) / float64(time.Millisecond),
	}
}

func encodePairEstimates(ests []core.PairEstimate) []PairEstimateJSON {
	return appendPairEstimates(make([]PairEstimateJSON, 0, len(ests)), ests)
}

// appendPairEstimates appends the wire form of ests to dst.
func appendPairEstimates(dst []PairEstimateJSON, ests []core.PairEstimate) []PairEstimateJSON {
	for _, e := range ests {
		dst = append(dst, PairEstimateJSON{
			Candidate: e.Candidate.String(),
			Dataflow:  e.Candidate.Dataflow.String(),
			AFormat:   e.Candidate.AFormat.String(),
			BFormat:   e.Candidate.BFormat.String(),
			Cost:      e.Cost,
		})
	}
	return dst
}

// SpGEMMMeasurements reports how many spgemm requests ran an actual
// measurement.
func (s *Server) SpGEMMMeasurements() int64 { return s.pair.measurements.Load() }

// parseOperand parses one SpGEMM operand's LIBSVM rows into the scratch
// and checks the inline cap. An error means the request is bad (400);
// which names the operand in the message.
func (sc *batchScratch) parseOperand(which string, data []byte) (dataset.Features, error) {
	feats, _, err := sc.parse(data)
	if err == nil {
		err = inlineCapError(feats)
	}
	if err != nil {
		return feats, fmt.Errorf("operand %s: %v", which, err)
	}
	return feats, nil
}

// handleScheduleSpGEMM answers POST /v1/schedule/spgemm: parse both
// operands, derive the pairwise shape class, and serve the dataflow
// decision from the pair cache, the ring owner (from its cache, or from the
// operands), or a fresh measurement under admission control.
func (s *Server) handleScheduleSpGEMM(w http.ResponseWriter, r *http.Request) {
	// Both operands are alive until the decision returns, so each parses
	// into a pooled scratch of its own; the body they view lives in sa.
	sa, sb := getScratch(), getScratch()
	defer putScratch(sa)
	defer putScratch(sb)
	req, ok := decodeEnvelope[SpGEMMRequest](s, sa, w, r, spgemmFields)
	if !ok {
		return
	}
	policy, err := s.policyFor(req.policy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if policy == core.PolicyPredict && !s.pairPredictor.Loaded() {
		writeError(w, http.StatusBadRequest,
			"predict policy needs a trained pair model (start layoutd with -spgemm-predictor)")
		return
	}
	if len(req.a) == 0 || len(req.b) == 0 {
		writeError(w, http.StatusBadRequest, "give both operands: a and b as inline LIBSVM rows")
		return
	}
	r = s.acceptForwarded(r)
	ctx, tr, root := s.joinOrStartTrace(r, "schedule-spgemm",
		telemetry.String("policy", policy.String()))
	setTraceID(w, tr.ID)
	defer func() { s.endTrace(w, tr, root, err) }()
	if err = s.scheduleSpGEMM(ctx, w, &req, policy, sa, sb); err != nil {
		writeScheduleError(w, err)
	}
}

// parsePair parses both operands under a request.parse span and checks
// that they conform. Every error is the caller's.
func parsePair(ctx context.Context, req *envelope, sa, sb *batchScratch) (fa, fb dataset.Features, err error) {
	psp := telemetry.StartLeaf(ctx, "request.parse")
	if fa, err = sa.parseOperand("a", req.a); err == nil {
		fb, err = sb.parseOperand("b", req.b)
	}
	if err != nil {
		psp.EndErr(err)
		return fa, fb, badRequest{err}
	}
	psp.Annotate(telemetry.Int("a_rows", fa.M), telemetry.Int("b_rows", fb.M))
	psp.End()
	if fa.N != fb.M {
		return fa, fb, badRequest{fmt.Errorf(
			"dimension mismatch: A is %d×%d but B is %d×%d", fa.M, fa.N, fb.M, fb.N)}
	}
	return fa, fb, nil
}

// scheduleSpGEMM parses and decides one pair and writes its reply:
// rule-based requests go straight to the cost model, everything else
// through routing, the pair cache, and admission-controlled measurement.
// An error comes back unwritten.
func (s *Server) scheduleSpGEMM(ctx context.Context, w http.ResponseWriter, req *envelope, policy core.Policy, sa, sb *batchScratch) error {
	fa, fb, err := parsePair(ctx, req, sa, sb)
	if err != nil {
		return err
	}
	trace := &sa.trace
	trace.reset()
	trace.text("parsed pair ").int(fa.M).text("×").int(fa.N).text(" × ").int(fb.M).text("×").int(fb.N).end()
	reply := func(d *SpGEMMDecisionJSON, measured []byte) {
		sa.out.spgemmReply(d, rendered{measured: measured, trace: trace.elems})
		writeReply(w, &sa.out)
	}

	if policy == core.RuleBased {
		// Pure model decision: nothing to measure, nothing worth caching.
		t0 := time.Now()
		dec, err := s.spScheds[policy].ChooseContext(ctx, sa.b, sb.b)
		if err != nil {
			return err
		}
		s.observeDecision(ctx, time.Since(t0))
		dj := NewSpGEMMDecisionJSON(dec)
		dec.Release()
		dj.TraceID = contextTraceID(ctx)
		trace.text("rule-based policy: model decision, no measurement").end()
		reply(&dj, nil)
		return nil
	}

	sa.key = AppendPairKey(sa.key[:0], fa, fb, policy.String(), s.cfg.TopK)
	key := sa.key
	r, err := decideRouted(ctx, s, &s.pair, policy, key, pairIn{a: sa.b, b: sb.b, fa: fa, fb: fb}, trace, "/v1/schedule/spgemm",
		func() []byte {
			// As in scheduleOne: policy pinned.
			sa.fwd.spgemmBody(req.a, req.b, policy.String())
			return bytes.Clone(sa.fwd.b)
		})
	switch {
	case err != nil:
		return err
	case r.peer != nil:
		relay(w, r.peer.status, r.peer.body)
		return nil
	}
	val := r.val
	name := val.Candidate.String()
	noteDecide(s, trace, s.pair.classNoun, key, r.outcome, val, name, policy)

	sa.pairEsts = core.AppendPairEstimates(sa.pairEsts[:0], fa, fb)
	sa.pairEstsJ = appendPairEstimates(sa.pairEstsJ[:0], sa.pairEsts)
	d := SpGEMMDecisionJSON{
		Policy:       policy.String(),
		Chosen:       name,
		Dataflow:     val.Candidate.Dataflow.String(),
		AFormat:      val.Candidate.AFormat.String(),
		BFormat:      val.Candidate.BFormat.String(),
		AFeatures:    NewFeaturesJSON(fa),
		BFeatures:    NewFeaturesJSON(fb),
		Source:       val.Rung.String(),
		Confidence:   val.Confidence,
		EstimatedNNZ: val.EstimatedNNZ,
		OutputNNZ:    val.OutputNNZ,
		Estimates:    sa.pairEstsJ,
		Degraded:     val.Degraded,
		TraceID:      contextTraceID(ctx),
	}
	if r.outcome != "miss" {
		d.Source = "cache"
	}
	_, measured := val.evidence()
	reply(&d, measured)
	return nil
}

// pairIn is the SpGEMM workload's operand bundle: both parsed operands and
// their features.
type pairIn struct {
	a, b   *sparse.Builder
	fa, fb dataset.Features
}

// setupPair fills the SpGEMM workload's entry in the decide pipeline.
func (s *Server) setupPair() {
	w := &s.pair
	w.cache = newDecisionCache[*CachedPairDecision](s.cfg)
	w.choose = func(ctx context.Context, policy core.Policy, in pairIn) (decision[spgemm.Candidate], error) {
		return s.spScheds[policy].ChooseContext(ctx, in.a, in.b)
	}
	w.history = func(in pairIn) (spgemm.Candidate, bool) {
		return s.cfg.PairHistory.Lookup(in.fa, in.fb, core.DefaultPairHistoryRadius)
	}
	w.predict = func(in pairIn) (spgemm.Candidate, float64, bool) {
		c, conf, ok := s.pairPredictor.PredictPair(in.fa, in.fb)
		return c, conf, ok && spgemm.Supported(c)
	}
	w.model = func(in pairIn) (spgemm.Candidate, float64) {
		return core.EstimatePairCandidates(in.fa, in.fb)[0].Candidate, dataset.EstimateOutputNNZ(in.fa, in.fb)
	}
	w.publish = s.publishPair
	w.record = func(in pairIn, c spgemm.Candidate) { s.cfg.PairHistory.RecordCandidate(in.fa, in.fb, c) }
	w.parse = parseSupportedPair
	w.classNoun = "pair shape class"
}

// publishPair gossips a fresh pair decision (and, when measured, the
// history record behind it) and harvests it for the online flywheel.
func (s *Server) publishPair(key []byte, in pairIn, val *CachedPairDecision) {
	label := val.Candidate.String()
	gossip(s, val, key, cluster.KindSpGEMM, cluster.KindPairHistory,
		pairHistoryWire{AFeatures: NewFeaturesJSON(in.fa), BFeatures: NewFeaturesJSON(in.fb), Candidate: label})
	harvest(s, val, online.Record{Kind: online.KindPair, F: in.fa, FB: in.fb, Label: label})
}

// pairHistoryWire is the replicated form of one pairwise tuning-history
// record; the receiver re-runs dataset.EmbedPair.
type pairHistoryWire struct {
	AFeatures FeaturesJSON `json:"a_features"`
	BFeatures FeaturesJSON `json:"b_features"`
	Candidate string       `json:"candidate"`
}

func (w pairHistoryWire) label() string { return w.Candidate }

func (w pairHistoryWire) operands() (pairIn, bool) {
	fa, fb := w.AFeatures.Features(), w.BFeatures.Features()
	return pairIn{fa: fa, fb: fb}, fa.M > 0 && fa.N > 0 && fb.M > 0 && fb.N > 0
}

// parseSupportedPair is the pair workload's gossip candidate parser: a
// peer's candidate this build cannot run is skipped like an unparseable one.
func parseSupportedPair(s string) (spgemm.Candidate, error) {
	c, err := spgemm.ParseCandidate(s)
	if err == nil && !spgemm.Supported(c) {
		err = fmt.Errorf("unsupported candidate %q", s)
	}
	return c, err
}
