package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/telemetry"
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
	// recorded, and datasets whose features fall within HistoryRadius of
	// a recorded one reuse its candidate without re-measuring.
	History       *History
	HistoryRadius float64 // 0 = DefaultHistoryRadius
	// Weights overrides the rule-based model's access-efficiency factors,
	// typically from Calibrate; nil uses the paper-calibrated defaults.
	Weights *Weights
	// Predictor is the trained model the PolicyPredict policy answers
	// from (typically a *learn.Forest loaded from disk). Predictors that
	// also implement CandidatePredictor answer in the joint space.
	Predictor FormatPredictor
	// MinConfidence gates the predictor: answers below it fall back to
	// measurement. 0 = DefaultMinConfidence.
	MinConfidence float64
	// MeasureRetries bounds how many times a transient measurement failure
	// is retried per candidate before the candidate is skipped.
	// 0 = DefaultMeasureRetries, negative = never retry.
	MeasureRetries int
	// RetryBackoff is the first retry's backoff; each further attempt
	// doubles it, plus seeded jitter. 0 = 250µs.
	RetryBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.TrialRows <= 0 {
		c.TrialRows = 3
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.HistoryRadius <= 0 {
		c.HistoryRadius = DefaultHistoryRadius
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = DefaultMinConfidence
	}
	if c.MeasureRetries == 0 {
		c.MeasureRetries = DefaultMeasureRetries
	} else if c.MeasureRetries < 0 {
		c.MeasureRetries = 0
	}
	return c
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
	d.Policy = 0
	d.Features = dataset.Features{}
	d.Estimates = d.Estimates[:0]
	d.Candidates = d.Candidates[:0]
	if d.Measured == nil {
		d.Measured = make(map[sparse.Candidate]time.Duration, 8)
	} else {
		clear(d.Measured)
	}
	d.Chosen = 0
	d.ChosenCandidate = sparse.Candidate{}
	d.Matrix = nil
	d.Reused = false
	d.Predicted = false
	d.Confidence = 0
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

// chooseScratch is the per-choose workspace: kernel buffers, trial
// vectors, candidate lists, feature extraction state, and the sampling
// RNG. Instances are pooled per Scheduler so repeated Choose calls
// allocate nothing after warmup.
type chooseScratch struct {
	pair      sparse.PairScratch
	trials    []sparse.Vector
	cands     []sparse.Candidate
	extractor dataset.Extractor
	rng       *rand.Rand
}

// Scheduler chooses storage formats and kernel execution parameters for
// data matrices.
type Scheduler struct {
	cfg Config
	// execByChunk maps ChunkPolicy to a derived execution context, built
	// once so the measurement loop never pays WithSched's copy.
	execByChunk [2]*exec.Exec
	scratch     sync.Pool
}

// New creates a Scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults()}
	s.execByChunk[sparse.ChunkStatic] = s.cfg.Exec.WithSched(exec.Static)
	s.execByChunk[sparse.ChunkGuided] = s.cfg.Exec.WithSched(exec.Guided)
	s.scratch.New = func() any {
		return &chooseScratch{rng: rand.New(rand.NewSource(s.cfg.Seed + 1))}
	}
	return s
}

// execFor returns the execution context for a candidate's chunk policy.
func (s *Scheduler) execFor(c sparse.Candidate) *exec.Exec {
	if int(c.Chunk) < len(s.execByChunk) {
		return s.execByChunk[c.Chunk]
	}
	return s.cfg.Exec
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
	traced := telemetry.ContextTrace(ctx) != nil
	var sp *telemetry.Span
	if traced {
		ctx, sp = telemetry.StartSpan(ctx, "schedule.choose",
			telemetry.String("policy", s.cfg.Policy.String()))
	}
	d, err := s.chooseContext(ctx, b, traced)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	if traced {
		sp.Annotate(telemetry.String("chosen", d.ChosenCandidate.String()),
			telemetry.String("source", d.Source()))
		sp.End()
	}
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

func (s *Scheduler) chooseContext(ctx context.Context, b *sparse.Builder, traced bool) (*Decision, error) {
	if rows, cols := b.Dims(); rows == 0 || cols == 0 {
		return nil, ErrEmptyMatrix
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: choose: %w", err)
	}
	sc := s.scratch.Get().(*chooseScratch)
	defer s.scratch.Put(sc)
	// Features come cheaply from the CSR materialization, which Empirical
	// and Hybrid need anyway as a measurement candidate.
	csr, err := b.Build(sparse.CSR)
	if err != nil {
		return nil, fmt.Errorf("core: building CSR for analysis: %w", err)
	}
	feats := sc.extractor.Extract(csr)
	weights := DefaultWeights()
	if s.cfg.Weights != nil {
		weights = *s.cfg.Weights
	}
	d := newDecision()
	d.Policy = s.cfg.Policy
	d.Features = feats
	d.Estimates = AppendEstimates(d.Estimates[:0], feats, weights)
	d.Candidates = AppendCandidateEstimates(d.Candidates[:0], d.Estimates, s.parallel())

	// Incremental auto-tuning: reuse a recorded decision for a similar
	// dataset before paying for any measurement.
	if s.cfg.History != nil {
		var hsp *telemetry.Span
		if traced {
			_, hsp = telemetry.StartSpan(ctx, "history.lookup")
		}
		c, ok := s.cfg.History.Lookup(feats, s.cfg.HistoryRadius)
		if traced {
			hsp.Annotate(telemetry.String("hit", strconv.FormatBool(ok)))
			if ok {
				hsp.Annotate(telemetry.String("candidate", c.String()))
			}
			hsp.End()
		}
		if ok {
			if m, err := materialize(b, csr, c.Format); err == nil {
				d.Chosen = c.Format
				d.ChosenCandidate = c
				d.Matrix = m
				d.Reused = true
				return d, nil
			}
			// Unbuildable here (e.g. DIA cap): fall through to a fresh
			// decision.
		}
	}

	var candidates []sparse.Candidate
	switch s.cfg.Policy {
	case RuleBased:
		for _, ce := range d.Candidates {
			m, err := materialize(b, csr, ce.Candidate.Format)
			if err != nil {
				// The model can rank DIA first on matrices whose padded DIA
				// form exceeds the memory cap; the next candidate stands in.
				continue
			}
			d.Chosen = ce.Candidate.Format
			d.ChosenCandidate = ce.Candidate
			d.Matrix = m
			return d, nil
		}
		d.Release()
		return nil, fmt.Errorf("core: no buildable format")
	case Empirical:
		sc.cands = sc.cands[:0]
		for _, f := range sparse.BasicFormats {
			sc.cands = sparse.AppendCandidates(sc.cands, f, s.parallel())
		}
		candidates = sc.cands
	case Hybrid:
		candidates = s.topCandidates(sc, d.Candidates)
	case PolicyPredict:
		if s.cfg.Predictor == nil {
			d.Release()
			return nil, ErrNoPredictor
		}
		var psp *telemetry.Span
		if traced {
			_, psp = telemetry.StartSpan(ctx, "predictor.predict")
		}
		var c sparse.Candidate
		var conf float64
		var ok bool
		if cp, isJoint := s.cfg.Predictor.(CandidatePredictor); isJoint {
			c, conf, ok = cp.PredictCandidate(feats)
		} else {
			var f sparse.Format
			f, conf, ok = s.cfg.Predictor.PredictFormat(feats)
			c = sparse.BaseCandidate(f)
		}
		// Chaos hook: model-staleness simulation jitters the vote share.
		conf = fault.Perturb("core.predict", conf)
		if traced {
			psp.Annotate(telemetry.String("candidate", c.String()),
				telemetry.String("confidence", strconv.FormatFloat(conf, 'f', 3, 64)),
				telemetry.String("trusted", strconv.FormatBool(ok && conf >= s.cfg.MinConfidence)))
			psp.End()
		}
		d.Confidence = conf
		if ok && conf >= s.cfg.MinConfidence {
			if m, err := materialize(b, csr, c.Format); err == nil {
				d.Chosen = c.Format
				d.ChosenCandidate = c
				d.Matrix = m
				d.Predicted = true
				return d, nil
			}
			// The model can predict a format the data cannot build (e.g.
			// DIA over its memory cap): measure instead of failing.
		}
		// Low confidence or unbuildable prediction: hybrid-style
		// measurement, recorded into History below so retraining covers
		// this shape class.
		candidates = s.topCandidates(sc, d.Candidates)
	default:
		d.Release()
		return nil, fmt.Errorf("core: unknown policy %d", int(s.cfg.Policy))
	}

	sc.rng.Seed(s.cfg.Seed + 1)
	s.sampleRows(sc, csr.(*sparse.CSRMatrix))
	var best sparse.Matrix
	bestTime := time.Duration(-1)
	var lastErr error
	for _, c := range candidates {
		if err := ctx.Err(); err != nil {
			d.Release()
			return nil, fmt.Errorf("core: choose: %w", err)
		}
		cctx := ctx
		var candSp, bsp *telemetry.Span
		if traced {
			cctx, candSp = telemetry.StartSpan(ctx, "candidate",
				telemetry.String("candidate", c.String()))
			_, bsp = telemetry.StartSpan(cctx, "candidate.build")
		}
		err := fault.Inject("core.build")
		var m sparse.Matrix
		if err == nil {
			m, err = materialize(b, csr, c.Format)
		}
		bsp.EndErr(err)
		if err != nil {
			candSp.EndErr(err)
			lastErr = err
			continue
		}
		t, err := retryMeasure(cctx, s.cfg.MeasureRetries, s.cfg.RetryBackoff, sc.rng, traced,
			func(actx context.Context) (time.Duration, error) { return s.measure(actx, m, c, sc, traced) })
		if err != nil {
			candSp.EndErr(err)
			// Context expiry bounds the whole decision; anything else —
			// retries exhausted, a kernel panic on this candidate's data —
			// disqualifies only this candidate, so one poisoned candidate
			// cannot sink a decision the others can still win.
			if ctx.Err() != nil {
				d.Release()
				return nil, fmt.Errorf("core: choose: %w", ctx.Err())
			}
			lastErr = err
			continue
		}
		if traced {
			candSp.Annotate(telemetry.Dur("measured", t))
			candSp.End()
		}
		d.Measured[c] = t
		if bestTime < 0 || t < bestTime {
			bestTime, best = t, m
			d.Chosen, d.ChosenCandidate = c.Format, c
		}
	}
	if best == nil {
		d.Release()
		return nil, fmt.Errorf("core: no candidate format could be measured: %w", lastErr)
	}
	d.Matrix = best
	if s.cfg.History != nil {
		s.cfg.History.RecordCandidate(feats, d.ChosenCandidate)
	}
	return d, nil
}

// topCandidates lists the TopK cheapest modeled joint candidates as
// measurement candidates, reusing the scratch buffer.
func (s *Scheduler) topCandidates(sc *chooseScratch, ests []CandidateEstimate) []sparse.Candidate {
	k := min(s.cfg.TopK, len(ests))
	sc.cands = sc.cands[:0]
	for _, e := range ests[:k] {
		sc.cands = append(sc.cands, e.Candidate)
	}
	return sc.cands
}

// materialize builds format f from b, reusing the already-built CSR.
func materialize(b *sparse.Builder, csr sparse.Matrix, f sparse.Format) (sparse.Matrix, error) {
	if f == sparse.CSR {
		return csr, nil
	}
	return b.Build(f)
}

// sampleRows extracts TrialRows random rows of the matrix into the scratch
// trial vectors — the same distribution SMO draws X_high/X_low from. Trial
// vectors reuse their capacity across calls.
func (s *Scheduler) sampleRows(sc *chooseScratch, m *sparse.CSRMatrix) {
	rows, _ := m.Dims()
	for len(sc.trials) < s.cfg.TrialRows {
		sc.trials = append(sc.trials, sparse.Vector{})
	}
	sc.trials = sc.trials[:s.cfg.TrialRows]
	for i := range sc.trials {
		sc.trials[i] = m.RowTo(sc.trials[i], sc.rng.Intn(rows))
	}
}

// measure times Repeats pair units (two SMSV products, the SMO iteration's
// kernel work) per trial row under the candidate's variant and chunk
// policy, returning the total. Cancellation is observed between
// repetitions — one pair unit is the granularity of abort. A panic inside
// a kernel (a poisoned dataset, or a worker fault re-raised by the pool)
// is recovered into a *KernelPanicError so a measurement failure stays an
// error, never a crash.
func (s *Scheduler) measure(ctx context.Context, m sparse.Matrix, c sparse.Candidate, sc *chooseScratch, traced bool) (total time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			// A mid-kernel panic can leave the scatter workspaces dirty;
			// re-zero so the pooled scratch stays clean for the next use.
			zero(sc.pair.Scratch1)
			zero(sc.pair.Scratch2)
			total, err = 0, &KernelPanicError{Format: m.Format(), Value: p}
		}
	}()
	rows, cols := m.Dims()
	sc.pair.Grow(rows, cols)
	ex := s.execFor(c)
	trials := sc.trials
	// One warm-up pass touches every stored element, faulting pages in so
	// the timed runs measure steady-state kernel speed.
	if len(trials) > 0 {
		var wsp *telemetry.Span
		if traced {
			_, wsp = telemetry.StartSpan(ctx, "measure.warmup")
		}
		x2 := trials[len(trials)-1]
		c.RunPair(m, sc.pair.Dst1, sc.pair.Dst2, trials[0], x2, sc.pair.Scratch1, sc.pair.Scratch2, ex)
		wsp.End()
	}
	for ti, x := range trials {
		// Pair the trial row with its successor so fused kernels see two
		// distinct x vectors, like an SMO iteration does.
		x2 := trials[(ti+1)%len(trials)]
		for r := 0; r < s.cfg.Repeats; r++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			// Chaos hooks: injected measurement failure, then timer skew and
			// result perturbation over the measured repetition.
			if err := fault.Inject("core.measure"); err != nil {
				return 0, err
			}
			var rsp *telemetry.Span
			if traced {
				_, rsp = telemetry.StartSpan(ctx, "measure.rep",
					telemetry.Int("trial", ti), telemetry.Int("rep", r))
			}
			start := time.Now()
			c.RunPair(m, sc.pair.Dst1, sc.pair.Dst2, x, x2, sc.pair.Scratch1, sc.pair.Scratch2, ex)
			rsp.End()
			elapsed := fault.Skew("core.measure", time.Since(start))
			total += time.Duration(fault.Perturb("core.measure", float64(elapsed)))
		}
	}
	return total, nil
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
