package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// ErrEmptyMatrix is returned by Choose when the builder describes a
// degenerate matrix with no rows or columns: no format can represent it and
// no trial row can be sampled from it.
var ErrEmptyMatrix = errors.New("core: empty matrix: builder has no rows or columns")

// ErrNoPredictor is returned by Choose under PolicyPredict when no trained
// predictor was configured.
var ErrNoPredictor = errors.New("core: predict policy requires a trained Predictor")

// Policy selects how the scheduler decides.
type Policy int

const (
	// RuleBased picks the candidate with the lowest modeled cost — zero
	// measurement overhead, pure Table IV reasoning.
	RuleBased Policy = iota
	// Empirical builds every candidate and times the actual SMO pair unit
	// (two SMSV products, the per-iteration kernel work) on sampled rows
	// of the real matrix, picking the fastest point in the joint
	// (format × chunk × variant) space. This is the paper's auto-tuning
	// mode widened per Auto-SpMV: the measurement cost is amortized over
	// the thousands of SMO iterations that follow.
	Empirical
	// Hybrid prunes to the TopK model candidates, then measures only
	// those — the practical default.
	Hybrid
	// PolicyPredict answers from a trained predictor (Config.Predictor)
	// when its confidence clears Config.MinConfidence — a microsecond
	// model inference instead of a multi-rep kernel measurement — and
	// falls back to hybrid measurement otherwise. The fallback is recorded
	// into History so retraining learns exactly the shape classes the
	// model was unsure about (the measure→train→predict flywheel).
	PolicyPredict
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case RuleBased:
		return "rule-based"
	case Empirical:
		return "empirical"
	case Hybrid:
		return "hybrid"
	case PolicyPredict:
		return "predict"
	default:
		return "unknown"
	}
}

// ParsePolicy is String's inverse: the one place a policy name — a flag
// value, a request's "policy" field — becomes a Policy.
func ParsePolicy(name string) (Policy, error) {
	for p := RuleBased; p <= PolicyPredict; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want rule-based, empirical, hybrid, or predict)", name)
}

// FormatPredictor answers format queries from a trained model. It is
// implemented by *learn.Forest; core only sees the interface so the learn
// package can depend on core (for harvesting History) without a cycle.
type FormatPredictor interface {
	// PredictFormat returns the predicted best storage format for the
	// given Table IV parameters with a confidence in [0, 1]. ok=false
	// means the model has no answer at all (e.g. it holds no trees).
	PredictFormat(f dataset.Features) (format sparse.Format, confidence float64, ok bool)
}

// CandidatePredictor is the joint-space extension of FormatPredictor:
// models trained on the widened label space answer with a full candidate.
// The scheduler type-asserts Config.Predictor against this interface and
// falls back to format-level prediction (executed as the format's base
// candidate) when it is not implemented, so format-only predictors keep
// working unchanged.
type CandidatePredictor interface {
	// PredictCandidate returns the predicted best joint candidate with a
	// confidence in [0, 1]; ok=false means the model has no answer.
	PredictCandidate(f dataset.Features) (c sparse.Candidate, confidence float64, ok bool)
}

// DefaultMinConfidence is the predictor-trust threshold: predictions whose
// vote share falls below it trigger a measurement fallback.
const DefaultMinConfidence = 0.6

// Config parameterizes a Scheduler. The zero value is usable: hybrid
// policy, all cores, static scheduling, 3 trial rows, top-2 candidates.
type Config struct {
	Policy Policy
	// Exec is the execution context measurement kernels run under; nil
	// means exec.Default() (all cores, static schedule, pooled workers).
	Exec      *exec.Exec
	TrialRows int   // rows sampled as x vectors per measurement; 0 = 3
	Repeats   int   // timed pair-unit repetitions per trial row; 0 = 2
	TopK      int   // hybrid: candidates to measure; 0 = 2
	Seed      int64 // sampling seed; fixed default keeps runs reproducible
	// History enables incremental auto-tuning: measured decisions are
	// recorded, and datasets whose features fall within DefaultHistoryRadius
	// of a recorded one reuse its candidate without re-measuring.
	History *History
	// Predictor is the trained model the PolicyPredict policy answers
	// from (typically a *learn.Forest loaded from disk). Predictors that
	// also implement CandidatePredictor answer in the joint space.
	Predictor FormatPredictor
	// MinConfidence gates the predictor: answers below it fall back to
	// measurement. 0 = DefaultMinConfidence.
	MinConfidence float64
	// RetryBackoff is the first backoff before a transient measurement
	// failure is retried; each further attempt doubles it, plus seeded
	// jitter. 0 = 250µs.
	RetryBackoff time.Duration
}

// Decision records everything the scheduler did: the extracted features,
// the model's estimates, any measurements, and the chosen candidate with
// its materialized matrix.
//
// Decisions are pooled. A caller done with one may call Release to return
// it for reuse; after Release every field is invalid. Callers that retain
// decisions indefinitely simply never Release them.
type Decision struct {
	Policy    Policy
	Features  dataset.Features
	Estimates []Estimate // per-format modeled costs, ascending
	// Candidates is the joint model's ranking over the
	// (format × chunk × variant) space, ascending pair-unit cost.
	Candidates []CandidateEstimate
	// Measured holds the measured pair-unit time for every candidate that
	// was benchmarked (empty for RuleBased).
	Measured map[sparse.Candidate]time.Duration
	// Chosen is the chosen candidate's storage format (the materialized
	// layout); ChosenCandidate carries the full execution choice.
	Chosen          sparse.Format
	ChosenCandidate sparse.Candidate
	Matrix          sparse.Matrix // the data materialized in the chosen format
	// Reused is true when the candidate came from the incremental-tuning
	// history rather than a fresh measurement.
	Reused bool
	// Predicted is true when the candidate came from the trained predictor
	// (PolicyPredict with confidence at or above the threshold).
	Predicted bool
	// Confidence is the predictor's vote share for its answer. It is set
	// whenever the predictor was consulted, including low-confidence
	// decisions that fell back to measurement.
	Confidence float64
}

var decisionPool = sync.Pool{New: func() any { return new(Decision) }}

// newDecision hands out a pooled Decision with retained capacity (estimate
// slices, measurement map) and all semantic fields reset.
func newDecision() *Decision {
	d := decisionPool.Get().(*Decision)
	*d = Decision{Estimates: d.Estimates[:0], Candidates: d.Candidates[:0], Measured: d.Measured}
	if d.Measured == nil {
		d.Measured = make(map[sparse.Candidate]time.Duration, 8)
	}
	clear(d.Measured)
	return d
}

// Release returns the decision to the pool. It is optional — an
// unreleased Decision is ordinary garbage — but hot paths that release
// reach a steady state with no per-decision allocation. The caller must
// not touch the decision (or its Matrix, Estimates, or Measured map)
// afterwards.
func (d *Decision) Release() {
	if d == nil {
		return
	}
	d.Matrix = nil
	decisionPool.Put(d)
}

// chooseScratch is the pooled per-choose workspace and the SMSV workload
// the ladder drives: kernel buffers, trial vectors, feature extraction state
// and, for one choose, the input, the candidate build under measurement and
// the decision being filled in. Pooling it per Scheduler is why repeated
// Choose calls allocate nothing after warmup.
type chooseScratch struct {
	ladderScratch[sparse.Candidate]
	s         *Scheduler
	pair      sparse.PairScratch
	trials    []sparse.Vector
	extractor dataset.Extractor

	b   *sparse.Builder
	csr *sparse.CSRMatrix
	m   sparse.Matrix // the candidate build being measured
	d   *Decision
}

// Scheduler chooses storage formats and kernel execution parameters for
// data matrices.
type Scheduler struct {
	cfg    Config
	ladder ladder[[dataset.EmbedDims]float64, sparse.Candidate]
	// execByChunk maps ChunkPolicy to a derived execution context, built
	// once so the measurement loop never pays WithSched's copy.
	execByChunk [2]*exec.Exec
	scratch     sync.Pool
}

// New creates a Scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Exec == nil {
		cfg.Exec = exec.Default()
	}
	if cfg.TrialRows <= 0 {
		cfg.TrialRows = 3
	}
	s := &Scheduler{cfg: cfg}
	s.ladder = ladder[[dataset.EmbedDims]float64, sparse.Candidate]{
		policy: cfg.Policy, topK: cfg.TopK, repeats: cfg.Repeats,
		minConfidence: cfg.MinConfidence, retryBackoff: cfg.RetryBackoff, seed: cfg.Seed,
		radius: DefaultHistoryRadius, predictor: cfg.Predictor != nil,
		span: "schedule.choose", op: "core: choose", noun: "candidate format",
	}.withDefaults()
	if cfg.Policy == Empirical { // the one policy that measures the whole space
		for _, f := range sparse.BasicFormats {
			s.ladder.space = sparse.AppendCandidates(s.ladder.space, f, s.parallel())
		}
	}
	if cfg.History != nil {
		s.ladder.history = &cfg.History.radiusStore
	}
	s.execByChunk[sparse.ChunkStatic] = cfg.Exec.WithSched(exec.Static)
	s.execByChunk[sparse.ChunkGuided] = cfg.Exec.WithSched(exec.Guided)
	s.scratch.New = func() any { return &chooseScratch{s: s} }
	return s
}

// parallel reports whether the scheduler's kernels run multi-worker, which
// gates the guided-chunk candidates.
func (s *Scheduler) parallel() bool { return s.cfg.Exec.Workers() > 1 }

// Choose decides the storage format and kernel variant for the matrix held
// in b and returns the decision with the matrix materialized in the chosen
// format.
func (s *Scheduler) Choose(b *sparse.Builder) (*Decision, error) {
	return s.ChooseContext(context.Background(), b)
}

// ChooseContext is Choose with cancellation: the context is checked before
// every candidate materialization and between timed kernel repetitions, so a
// caller-imposed deadline bounds the measurement phase. A cancelled decision
// returns ctx.Err() (wrapped); already-completed measurements are discarded
// and nothing is recorded into the tuning history.
//
// When a telemetry trace rides ctx (see telemetry.NewTrace), the decision is
// traced span by span: one per candidate build, per timed measurement rep,
// per retry attempt, per predictor call, and per history lookup. Without a
// trace the instrumentation is skipped entirely — the hot path stays
// allocation-free.
func (s *Scheduler) ChooseContext(ctx context.Context, b *sparse.Builder) (*Decision, error) {
	sc := s.scratch.Get().(*chooseScratch)
	sc.b = b
	v, err := s.ladder.choose(ctx, sc, &sc.ladderScratch)
	d := sc.d
	// A pooled scratch must not pin the caller's matrix or decision.
	sc.b, sc.csr, sc.m, sc.d = nil, nil, nil, nil
	s.scratch.Put(sc)
	if err != nil {
		d.Release()
		return nil, err
	}
	d.Chosen, d.ChosenCandidate = v.chosen.Format, v.chosen
	d.Reused, d.Predicted, d.Confidence = v.reused, v.predicted, v.confidence
	return d, nil
}

// sourceOf labels where a decision came from; the serve layer's Source
// field carries the same strings.
func sourceOf(predicted, reused, measured bool) string {
	switch {
	case predicted:
		return "predictor"
	case reused:
		return "history"
	case measured:
		return "measured"
	default:
		return "model"
	}
}

// Source labels where the decision came from: "predictor", "history",
// "measured", or "model" (cost model only).
func (d *Decision) Source() string {
	return sourceOf(d.Predicted, d.Reused, len(d.Measured) > 0)
}

// prepare gets the features cheaply from the CSR materialization, which
// Empirical and Hybrid need anyway as a measurement candidate.
func (sc *chooseScratch) prepare(ranked []sparse.Candidate) (p [dataset.EmbedDims]float64, _ []sparse.Candidate, err error) {
	if rows, cols := sc.b.Dims(); rows == 0 || cols == 0 {
		return p, nil, ErrEmptyMatrix
	}
	csr, err := sc.b.Build(sparse.CSR)
	if err != nil {
		return p, nil, fmt.Errorf("core: building CSR for analysis: %w", err)
	}
	d := newDecision()
	d.Policy = sc.s.cfg.Policy
	d.Features = sc.extractor.Extract(csr)
	d.Estimates = AppendEstimates(d.Estimates[:0], d.Features)
	d.Candidates = AppendCandidateEstimates(d.Candidates[:0], d.Estimates, sc.s.parallel())
	ranked = slices.Grow(ranked, len(d.Candidates))
	for _, e := range d.Candidates {
		ranked = append(ranked, e.Candidate)
	}
	sc.csr, sc.d = csr.(*sparse.CSRMatrix), d
	return dataset.Embed(d.Features), ranked, nil
}

// predict answers in the joint space when the predictor can, and as the
// predicted format's base candidate otherwise.
func (sc *chooseScratch) predict() (sparse.Candidate, float64, bool) {
	if cp, isJoint := sc.s.cfg.Predictor.(CandidatePredictor); isJoint {
		return cp.PredictCandidate(sc.d.Features)
	}
	f, conf, ok := sc.s.cfg.Predictor.PredictFormat(sc.d.Features)
	return sparse.BaseCandidate(f), conf, ok
}

// usable materializes the decision's matrix in c's format (the Builder
// caches each one); DIA over its memory cap is the format that can fail.
func (sc *chooseScratch) usable(c sparse.Candidate) bool {
	m, err := sc.b.Build(c.Format)
	sc.d.Matrix = m
	return err == nil
}

func (sc *chooseScratch) build(c sparse.Candidate) (err error) {
	sc.m, err = sc.b.Build(c.Format)
	return err
}

// sample extracts TrialRows random rows of the matrix into the scratch
// trial vectors — the same distribution SMO draws X_high/X_low from. Trial
// vectors reuse their capacity across calls.
func (sc *chooseScratch) sample(rng *rand.Rand) int {
	rows, cols := sc.csr.Dims()
	sc.pair.Grow(rows, cols)
	n := sc.s.cfg.TrialRows
	sc.trials = slices.Grow(sc.trials[:0], n)[:n]
	for i := range sc.trials {
		sc.trials[i] = sc.csr.RowTo(sc.trials[i], rng.Intn(rows))
	}
	return n
}

// run is one pair unit (two SMSV products, the SMO iteration's kernel work)
// under the candidate's variant and chunk policy. The trial row is paired
// with its successor so fused kernels see two distinct x vectors, like an
// SMO iteration does.
func (sc *chooseScratch) run(c sparse.Candidate, trial int) error {
	x, x2 := sc.trials[trial], sc.trials[(trial+1)%len(sc.trials)]
	c.RunPair(sc.m, sc.pair.Dst1, sc.pair.Dst2, x, x2, sc.pair.Scratch1, sc.pair.Scratch2, sc.s.execByChunk[c.Chunk])
	return nil
}

func (sc *chooseScratch) kernelPanic(c sparse.Candidate, p any) error {
	// A mid-kernel panic can leave the scatter workspaces dirty; re-zero so
	// the pooled scratch stays clean for the next use.
	clear(sc.pair.Scratch1)
	clear(sc.pair.Scratch2)
	return &KernelPanicError{Format: c.Format, Value: p}
}

func (sc *chooseScratch) measured(c sparse.Candidate, t time.Duration, best bool) {
	sc.d.Measured[c] = t
	if best {
		sc.d.Matrix = sc.m
	}
}
