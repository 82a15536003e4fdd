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

// FormatPredictor answers layout queries from a trained model: the joint
// candidate (format, chunk policy, kernel variant) to run. It is
// implemented by *learn.Forest; core only sees the interface so the learn
// package can depend on core (for harvesting History) without a cycle.
type FormatPredictor interface {
	// PredictCandidate returns the predicted best joint candidate for the
	// given Table IV parameters with a confidence in [0, 1]. ok=false means
	// the model has no answer at all (e.g. it holds no trees).
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
	Exec *exec.Exec
	// TrialRows and Repeats bound a measurement: candidates are timed in
	// rounds of one pair unit each, Repeats rounds on each of TrialRows
	// sampled rows, and the race stops early once one candidate is left.
	TrialRows int   // rows sampled as x vectors per measurement; 0 = 3
	Repeats   int   // timed rounds per trial row, at most; 0 = 2
	TopK      int   // hybrid: candidates to measure; 0 = 2
	Seed      int64 // sampling seed; fixed default keeps runs reproducible
	// History enables incremental auto-tuning: measured decisions are
	// recorded, and datasets whose features fall within DefaultHistoryRadius
	// of a recorded one reuse its candidate without re-measuring.
	History *History
	// Predictor is the trained model the PolicyPredict policy answers
	// from (typically a *learn.Forest loaded from disk).
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
	// (format × chunk × variant) space of the paper's five formats and the
	// column dataflow (ColumnCandidate), ascending pair-unit cost. Estimates
	// keeps the five Table II rows alone.
	Candidates []CandidateEstimate
	// Measured holds the fastest timed pair unit of every candidate that was
	// benchmarked (empty for RuleBased), the ones the measurement race dropped
	// early included; ChosenCandidate's is the smallest. Every candidate of
	// one decision is timed on the same rows of the matrix — all of them for
	// a small matrix, one block of about measureBlock stored elements
	// otherwise — and on the same trial rows, so the times of one decision
	// compare with each other, not with another decision's.
	Measured map[sparse.Candidate]time.Duration
	// Chosen is the chosen candidate's storage format (the materialized
	// layout); ChosenCandidate carries the full execution choice.
	Chosen          sparse.Format
	ChosenCandidate sparse.Candidate
	// Matrix is the whole data set materialized in the chosen format. It is
	// the only full build a decision makes, however it was reached. A CSC one
	// is a *sparse.ColumnMatrix, valid until the builder's next triplet,
	// Shape, Reset or Recycle, since it reads its rows from the triplets.
	Matrix sparse.Matrix
	// Rung is how the candidate was reached: the cost model, a measurement,
	// the incremental-tuning history, or the trained predictor (PolicyPredict
	// with confidence at or above the threshold).
	Rung Rung
	// Confidence is the predictor's vote share for its answer. It is set
	// whenever the predictor was consulted, including low-confidence
	// decisions that fell back to measurement.
	Confidence float64
	column     sparse.ColumnMatrix // Matrix's storage when it is a column matrix
}

// Verdict returns the decision's answer and how it was reached. Its Measured
// is the decision's own map.
func (d *Decision) Verdict() Verdict[sparse.Candidate] {
	return Verdict[sparse.Candidate]{Candidate: d.ChosenCandidate, Rung: d.Rung,
		Confidence: d.Confidence, Measured: d.Measured}
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
	d.Matrix, d.column = nil, sparse.ColumnMatrix{}
	decisionPool.Put(d)
}

// measureBlock is about how many stored elements candidates are timed on.
// A matrix holding more than twice as many is sampled: its candidates are
// built and timed on one block of contiguous rows of this size, and only the
// winner is then built in full. The value is fitted, not a setting — see
// EXPERIMENTS.md "What a scheduling decision costs" for the sweep: large
// enough that the block ranks formats as the whole matrix does on the
// Table V clones and the Figure 2–4 families, small enough that building
// and timing the loser costs a fraction of building it in full.
const measureBlock = 16384

// blockSkew is how far the mean row length of the measurement block may be
// from the whole matrix's, as a ratio either way, for the block to stand for
// the matrix.
const blockSkew = 1.25

// chooseScratch is the pooled per-choose workspace and the SMSV workload
// the ladder drives: kernel buffers, trial vectors, feature extraction state
// and, for one choose, the input, the rows candidates are timed on, the
// candidate build under measurement and the decision being filled in.
// Pooling it per Scheduler is why repeated Choose calls allocate nothing
// after warmup.
type chooseScratch struct {
	ladderScratch[sparse.Candidate]
	s         *Scheduler
	pair      sparse.PairScratch
	trials    []sparse.Vector
	extractor dataset.Extractor

	b       *sparse.Builder
	longest int // the first longest row, which sets ELL's padding
	lo, hi  int // candidates are timed on rows [lo, hi)
	// blocks holds those rows in each format a candidate is timed in.
	blocks [len(sparse.AllFormats)]sparse.Matrix
	d      *Decision
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
	for _, chunk := range []sparse.ChunkPolicy{sparse.ChunkStatic, sparse.ChunkGuided} {
		s.execByChunk[chunk] = cfg.Exec.WithSched(chunk.Sched())
	}
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
	sc.b, sc.d = nil, nil
	clear(sc.blocks[:])
	s.scratch.Put(sc)
	if err != nil {
		d.Release()
		return nil, err
	}
	d.Chosen, d.ChosenCandidate = v.chosen.Format, v.chosen
	d.Rung, d.Confidence = v.rung, v.confidence
	return d, nil
}

// prepare reads the features off the builder's canonical triplets; no
// format is built to decide which format to build.
func (sc *chooseScratch) prepare(ranked []sparse.Candidate) (p [dataset.EmbedDims]float64, _ []sparse.Candidate, err error) {
	if rows, cols := sc.b.Dims(); rows == 0 || cols == 0 {
		return p, nil, ErrEmptyMatrix
	}
	d := newDecision()
	d.Policy = sc.s.cfg.Policy
	t := sc.b.Triplets()
	d.Features, sc.longest = sc.extractor.Triplets(t)
	d.Estimates = AppendEstimates(d.Estimates[:0], d.Features)
	var column float64 // Empirical measures its own space: no column row to price
	if d.Policy != Empirical {
		column = columnCost(d.Features.M, sc.extractor.Touched(t))
	}
	d.Candidates = AppendCandidateEstimates(d.Candidates[:0], d.Estimates, column, sc.s.parallel())
	ranked = slices.Grow(ranked, len(d.Candidates))
	for _, e := range d.Candidates {
		ranked = append(ranked, e.Candidate)
	}
	sc.d = d
	return dataset.Embed(d.Features), ranked, nil
}

// predict asks the predictor for the decision's joint candidate.
func (sc *chooseScratch) predict() (sparse.Candidate, float64, bool) {
	return sc.s.cfg.Predictor.PredictCandidate(sc.d.Features)
}

// usable materializes the decision's matrix, the whole data set, in c's
// format (the Builder caches each one); DIA over its memory cap is the format
// that can fail. A CSC build is paired with its triplets, to read its rows.
func (sc *chooseScratch) usable(c sparse.Candidate) bool {
	m, err := sc.b.Build(c.Format)
	if err != nil {
		return false
	}
	if c.Format == sparse.CSC {
		sc.d.column = sparse.NewColumnMatrix(sc.b.Triplets(), m.(*sparse.CSCMatrix))
		m = &sc.d.column
	}
	sc.d.Matrix = m
	return true
}

// build readies rows [lo, hi) in c's format. When those are all the rows
// the build is the builder's cached full one, which the winner's decision
// then carries. A block is kept for the whole decision, so candidates that
// differ only in chunk policy or variant share it. A CSR block views the
// triplets, which hold CSR's arrays in CSR's order: it lives only while this
// choose times it, so only its row pointers are new.
func (sc *chooseScratch) build(c sparse.Candidate) (err error) {
	rows, cols := sc.b.Dims()
	m := &sc.blocks[c.Format]
	switch {
	case *m != nil:
		return nil
	case sc.hi-sc.lo == rows:
		*m, err = sc.b.Build(c.Format)
	case c.Format == sparse.DIA && !sparse.DIAFits(rows, cols, sc.d.Features.Ndig):
		// A block's few rows can fit the cap the whole matrix exceeds.
		return fmt.Errorf("core: DIA over its memory cap: %d diagonals of a %dx%d matrix", sc.d.Features.Ndig, rows, cols)
	case c.Format == sparse.CSR:
		*m = sc.b.Triplets().CSRRows(sc.lo, sc.hi)
	default:
		*m, err = sc.b.BuildRows(c.Format, sc.lo, sc.hi)
	}
	if err != nil {
		*m = nil
	}
	return err
}

// sample extracts TrialRows random rows of the matrix into the scratch
// trial vectors — the same distribution SMO draws X_high/X_low from — and
// picks the rows the candidates about to be measured are timed on. Trial
// vectors reuse their capacity across calls.
//
// A matrix of more than 2·measureBlock stored elements is timed on the block
// of whole rows that covers measureBlock elements centred on its longest
// row: ELL pads every row to the longest one, so a block without it would
// time an ELL narrower than the one the job would run (the Figure 3 cliff).
// The block stands for the matrix only if its rows are about as long as the
// matrix's: DEN, ELL and DIA pay per row, CSR and COO per element, so a block
// cut from where the rows are several times longer or shorter than average —
// a matrix sorted by row length — ranks them for a different matrix. Such a
// matrix is timed whole.
func (sc *chooseScratch) sample(rng *rand.Rand) int {
	t := sc.b.Triplets()
	sc.pair.Grow(t.Rows, t.Cols)
	n := sc.s.cfg.TrialRows
	sc.trials = slices.Grow(sc.trials[:0], n)[:n]
	for i := range sc.trials {
		sc.trials[i] = t.RowTo(sc.trials[i], rng.Intn(t.Rows))
	}
	sc.lo, sc.hi = 0, t.Rows
	if nnz := len(t.Val); nnz > 2*measureBlock {
		klo, khi := t.Span(sc.longest, sc.longest+1)
		pad := max(measureBlock-(khi-klo), 0) / 2
		// Slide the window inside the matrix instead of clipping it, so a
		// longest row near either end still gets a full-size block.
		klo = max(min(klo-pad, nnz-measureBlock), 0)
		khi = min(max(khi+pad, klo+measureBlock), nnz)
		lo, hi := int(t.Row[klo]), int(t.Row[khi-1])+1
		klo, khi = t.Span(lo, hi)
		// Row length of the block against the matrix's, cross-multiplied.
		block, whole := float64(khi-klo)*float64(t.Rows), float64(nnz)*float64(hi-lo)
		if block <= blockSkew*whole && whole <= blockSkew*block {
			sc.lo, sc.hi = lo, hi
		}
	}
	return n
}

// run is one pair unit (two SMSV products, the SMO iteration's kernel work)
// under the candidate's variant and chunk policy. The trial row is paired
// with its successor so fused kernels see two distinct x vectors, like an
// SMO iteration does.
func (sc *chooseScratch) run(c sparse.Candidate, trial int) error {
	x, x2 := sc.trials[trial], sc.trials[(trial+1)%len(sc.trials)]
	c.RunPair(sc.blocks[c.Format], sc.pair.Dst1, sc.pair.Dst2, x, x2, sc.pair.Scratch1, sc.pair.Scratch2, sc.s.execByChunk[c.Chunk])
	return nil
}

func (sc *chooseScratch) kernelPanic(c sparse.Candidate, p any) error {
	// A mid-kernel panic can leave the scatter workspaces dirty; re-zero so
	// the pooled scratch stays clean for the next use.
	clear(sc.pair.Scratch1)
	clear(sc.pair.Scratch2)
	return &KernelPanicError{Format: c.Format, Value: p}
}

func (sc *chooseScratch) measured(c sparse.Candidate, t time.Duration, _ bool) {
	sc.d.Measured[c] = t
}
