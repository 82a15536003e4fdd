// Package serve turns the layout scheduler into a long-running network
// service: an HTTP/JSON API over Scheduler.Choose and trained SVM models,
// with a sharded, profile-keyed decision cache (singleflight-deduplicated so
// concurrent requests for the same shape class measure once), bounded
// admission onto the shared exec pool, per-request deadlines, and a
// plain-text metrics endpoint. cmd/layoutd is the daemon wrapper;
// cmd/layoutsched shares this package's JSON encoding for its -json flag.
package serve

import (
	"errors"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// FeaturesJSON is the wire form of the paper's nine Table IV influencing
// parameters. It is accepted in schedule requests (profile-only mode) and
// echoed in every decision response.
type FeaturesJSON struct {
	M       int     `json:"m"`
	N       int     `json:"n"`
	NNZ     int64   `json:"nnz"`
	Ndig    int     `json:"ndig"`
	Dnnz    float64 `json:"dnnz"`
	Mdim    int     `json:"mdim"`
	Adim    float64 `json:"adim"`
	Vdim    float64 `json:"vdim"`
	Density float64 `json:"density"`
}

// NewFeaturesJSON converts extracted features to their wire form.
func NewFeaturesJSON(f dataset.Features) FeaturesJSON {
	return FeaturesJSON{
		M: f.M, N: f.N, NNZ: f.NNZ, Ndig: f.Ndig, Dnnz: f.Dnnz,
		Mdim: f.Mdim, Adim: f.Adim, Vdim: f.Vdim, Density: f.Density,
	}
}

// Features converts the wire form back to the dataset type.
func (f FeaturesJSON) Features() dataset.Features {
	return dataset.Features{
		M: f.M, N: f.N, NNZ: f.NNZ, Ndig: f.Ndig, Dnnz: f.Dnnz,
		Mdim: f.Mdim, Adim: f.Adim, Vdim: f.Vdim, Density: f.Density,
	}
}

// EstimateJSON is one format's rule-based cost estimate with the factors
// broken out, mirroring core.Estimate.
type EstimateJSON struct {
	Format    string  `json:"format"`
	Bytes     int64   `json:"bytes"`
	Weight    float64 `json:"weight"`
	Imbalance float64 `json:"imbalance"`
	Cost      float64 `json:"cost"`
}

// MeasurementJSON is one joint candidate's measured SMO pair-unit time.
// Chunk and Variant are additive (omitted by pre-joint encoders), so old
// clients keep parsing the format-level fields unchanged.
type MeasurementJSON struct {
	Format  string  `json:"format"`
	Chunk   string  `json:"chunk,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Nanos   int64   `json:"nanos"`
	Millis  float64 `json:"millis"`
}

// DecisionJSON is the machine-readable layout decision shared by the
// layoutd /v1/schedule response and the layoutsched -json flag.
type DecisionJSON struct {
	Policy string `json:"policy"`
	Chosen string `json:"chosen"`
	// Chunk and Variant complete the joint execution choice behind Chosen:
	// the parallel chunking policy and the kernel variant the scheduler
	// selected. Additive fields — absent in pre-joint responses.
	Chunk    string       `json:"chunk,omitempty"`
	Variant  string       `json:"variant,omitempty"`
	Features FeaturesJSON `json:"features"`
	// Source records where the decision came from: "model" (rule-based
	// cost model only), "measured" (fresh empirical measurement),
	// "history" (near-miss reuse from the tuning history), "predictor"
	// (trained format model, no measurement), or "cache" (exact
	// shape-class hit in the serving cache).
	Source string `json:"source"`
	// Confidence is the predictor's vote share when one was consulted
	// (predict policy), including fallbacks that measured instead.
	Confidence float64 `json:"confidence,omitempty"`
	// Estimates is the cost model's account of every format. /v1/schedule and
	// layoutsched -json always fill it; batch slots decided from the cache
	// leave it out.
	Estimates []EstimateJSON    `json:"estimates,omitempty"`
	Measured  []MeasurementJSON `json:"measured,omitempty"` // ascending time
	// Degraded marks a decision produced without measurement because the
	// measurement path was failing (circuit breaker open, or the failure
	// that would have been a 5xx was absorbed). Degraded answers come from
	// history, the predictor, or the cost model, and are only briefly
	// cached so recovery re-measures the shape class.
	Degraded bool `json:"degraded,omitempty"`
	// TraceID identifies the decision's span tree. Against layoutd,
	// GET /v1/trace/{trace_id} returns the full tree while it remains in
	// the bounded trace ring; layoutsched -trace prints it directly.
	TraceID string `json:"trace_id,omitempty"`
	// Trace lists the policy steps the server took, in order, for
	// observability ("cache: miss", "admission: acquired slot", ...).
	Trace []string `json:"trace,omitempty"`
}

// NewDecisionJSON encodes a core decision. The measured block is sorted by
// ascending time so the first entry is the empirical winner.
func NewDecisionJSON(d *core.Decision) DecisionJSON {
	out := DecisionJSON{
		Policy:   d.Policy.String(),
		Chosen:   d.Chosen.String(),
		Chunk:    d.ChosenCandidate.Chunk.String(),
		Variant:  d.ChosenCandidate.Variant.String(),
		Features: NewFeaturesJSON(d.Features),
		Source:   d.Rung.String(),
	}
	out.Confidence = d.Confidence
	out.Estimates = appendEstimates(nil, d.Estimates)
	out.Measured = encodeMeasured[sparse.Candidate, MeasurementJSON](d.Measured)
	return out
}

// appendEstimates appends the wire form of ests to dst.
func appendEstimates(dst []EstimateJSON, ests []core.Estimate) []EstimateJSON {
	for _, e := range ests {
		dst = append(dst, EstimateJSON{
			Format: e.Format.String(), Bytes: e.Bytes, Weight: e.Weight,
			Imbalance: e.Imbalance, Cost: e.Cost,
		})
	}
	return dst
}

// evidenceRow is a reply's row type for one measured candidate of type C:
// measured builds a row (the receiver only names the type), and appendTo
// appends one to a reply being written.
type evidenceRow[C, R any] interface {
	measured(c C, t time.Duration) R
	appendTo(w *wire)
}

// encodeMeasured renders a measurement map as one row per candidate,
// fastest first, ties by candidate string; nil when nothing was measured.
func encodeMeasured[C candidate, R evidenceRow[C, R]](m map[C]time.Duration) []R {
	if len(m) == 0 {
		return nil
	}
	cands := make([]C, 0, len(m))
	for c := range m {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if m[cands[i]] != m[cands[j]] {
			return m[cands[i]] < m[cands[j]]
		}
		return cands[i].String() < cands[j].String()
	})
	out := make([]R, len(cands))
	for i, c := range cands {
		out[i] = out[i].measured(c, m[c])
	}
	return out
}

func (MeasurementJSON) measured(c sparse.Candidate, t time.Duration) MeasurementJSON {
	return MeasurementJSON{
		Format: c.Format.String(), Chunk: c.Chunk.String(), Variant: c.Variant.String(),
		Nanos:  int64(t),
		Millis: float64(t) / float64(time.Millisecond),
	}
}

// ScheduleRequest is the /v1/schedule body. Exactly one of Profile or Data
// must be set: Profile runs the rule-based cost model on the given Table IV
// parameters (no data to measure); Data carries inline LIBSVM rows that the
// configured policy can measure empirically.
type ScheduleRequest struct {
	Profile *FeaturesJSON `json:"profile,omitempty"`
	Data    string        `json:"data,omitempty"`
	// Policy optionally overrides the server's default decision policy:
	// "rule-based", "empirical", "hybrid", or "predict".
	Policy string `json:"policy,omitempty"`
}

// ScheduleResponse is the /v1/schedule reply.
type ScheduleResponse struct {
	Decision DecisionJSON `json:"decision"`
}

// BatchScheduleRequest is the /v1/schedule/batch body: up to MaxBatchItems
// schedule requests decided in one round trip, sharing one parse of the
// connection, one decision trace, and one pass of pooled scratch. Policy
// sets the batch-wide default that individual items may override.
type BatchScheduleRequest struct {
	Items  []ScheduleRequest `json:"items"`
	Policy string            `json:"policy,omitempty"`
}

// BatchItemResult is one item's outcome. Exactly one of Decision or Error
// is set: a bad item (unparseable data, unknown policy, over the inline
// cap) fails alone without failing the batch.
type BatchItemResult struct {
	Decision *DecisionJSON `json:"decision,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// BatchScheduleResponse is the /v1/schedule/batch reply; Decisions[i]
// answers Items[i].
type BatchScheduleResponse struct {
	Decisions []BatchItemResult `json:"decisions"`
	// TraceID identifies the batch's shared span tree: every item's
	// scheduling spans nest under one trace.
	TraceID string `json:"trace_id,omitempty"`
}

// PredictFormatRequest is the /v1/predict-format body. Exactly one of
// Profile (the nine Table IV parameters) or Data (inline LIBSVM rows, whose
// parameters are extracted server-side) must be set.
type PredictFormatRequest struct {
	Profile *FeaturesJSON `json:"profile,omitempty"`
	Data    string        `json:"data,omitempty"`
}

// PredictFormatResponse is the /v1/predict-format reply: the trained
// predictor's format recommendation with its vote-share confidence.
// Confident reports whether the confidence clears the server's threshold,
// i.e. whether a predict-policy schedule request would trust this answer
// without measuring.
type PredictFormatResponse struct {
	Format     string       `json:"format"`
	Confidence float64      `json:"confidence"`
	Confident  bool         `json:"confident"`
	Features   FeaturesJSON `json:"features"`
}

// PredictRequest is the /v1/predict body: rows in LIBSVM feature syntax
// ("index:value index:value ..."), with or without a leading label.
type PredictRequest struct {
	Rows []string `json:"rows"`
}

// PredictResponse is the /v1/predict reply: one prediction in {-1,+1} and
// one raw decision value per input row.
type PredictResponse struct {
	Predictions []float64 `json:"predictions"`
	Decisions   []float64 `json:"decisions"`
	SVs         int       `json:"svs"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// policyFor resolves a request's optional policy override against the
// server default.
func (s *Server) policyFor(name string) (core.Policy, error) {
	if name == "" {
		return s.cfg.Policy, nil
	}
	return core.ParsePolicy(name)
}

// schedulePolicy is policyFor for the SMSV endpoints, which refuse the
// predict policy while no format predictor is loaded.
func (s *Server) schedulePolicy(name string) (core.Policy, error) {
	policy, err := s.policyFor(name)
	if err == nil && policy == core.PolicyPredict && !s.predictor.Loaded() {
		err = errors.New("predict policy needs a trained model (start layoutd with -predictor)")
	}
	return policy, err
}
