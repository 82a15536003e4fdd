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
	"repro/internal/spgemm"
)

// ErrEmptyPair is returned by the SpGEMM scheduler when either operand is a
// degenerate matrix with no rows or columns.
var ErrEmptyPair = errors.New("core: spgemm: empty operand matrix")

// PairPredictor answers SpGEMM dataflow queries from a trained model
// (implemented by *learn.PairForest; core sees only the interface).
type PairPredictor interface {
	// PredictPair returns the predicted best dataflow candidate for an
	// (A, B) operand pair with a confidence in [0, 1]; ok=false means the
	// model has no answer.
	PredictPair(fa, fb dataset.Features) (c spgemm.Candidate, confidence float64, ok bool)
}

// DefaultPairHistoryRadius is the pair history's reuse threshold. The
// pairwise space has more dimensions than the single-matrix one, so equal
// per-dimension jitter lands farther away; the radius is scaled up
// accordingly.
const DefaultPairHistoryRadius = 1.0

// PairEstimate is one SpGEMM candidate with its modeled cost.
type PairEstimate struct {
	Candidate spgemm.Candidate
	Cost      float64
}

// storedApprox estimates a format's stored element count from features
// alone: CSR/CSC store the nonzeros, ELL pads every row to the longest one.
func storedApprox(f dataset.Features, format sparse.Format) int64 {
	if format == sparse.ELL {
		return int64(f.M) * int64(f.Mdim)
	}
	return f.NNZ
}

// EstimatePairCandidates ranks every supported SpGEMM candidate by modeled
// cost, ascending (ties break toward the lower frozen Index, keeping the
// ranking deterministic). The flop bound comes from the feature-level
// uniform model nnzA·nnzB/K, so this works with only shape features in
// hand — the serve layer's profile path and the rule-based policy share it.
func EstimatePairCandidates(fa, fb dataset.Features) []PairEstimate {
	return AppendPairEstimates(nil, fa, fb)
}

// AppendPairEstimates appends EstimatePairCandidates' ranking to dst and
// returns it: the allocation-free form for pooled hot paths, as
// AppendEstimates is EstimateCosts'. With capacity available it neither
// allocates nor calls the reflect-based sort.
func AppendPairEstimates(dst []PairEstimate, fa, fb dataset.Features) []PairEstimate {
	flops := 0.0
	if fa.N > 0 {
		flops = float64(fa.NNZ) * float64(fb.NNZ) / float64(fa.N)
	}
	start := len(dst)
	for i := 0; i < spgemm.NumCandidates; i++ {
		c := spgemm.CandidateAt(i)
		if !spgemm.Supported(c) {
			continue
		}
		dst = append(dst, PairEstimate{
			Candidate: c,
			Cost: spgemm.EstimateCost(c, fa.M, fb.N,
				storedApprox(fa, c.AFormat), storedApprox(fb, c.BFormat), int64(flops)),
		})
	}
	// Candidates arrive in ascending Index, so a stable insertion sort by
	// cost breaks ties toward the lower Index.
	ests := dst[start:]
	for i := 1; i < len(ests); i++ {
		for j := i; j > 0 && ests[j].Cost < ests[j-1].Cost; j-- {
			ests[j], ests[j-1] = ests[j-1], ests[j]
		}
	}
	return dst
}

// SpGEMMConfig parameterizes a SpGEMMScheduler. The zero value is usable:
// hybrid policy, all cores, at most 2 timed products per candidate, top-2.
type SpGEMMConfig struct {
	Policy Policy
	// Exec is the execution context the product kernels run under; nil
	// means exec.Default().
	Exec    *exec.Exec
	Repeats int   // timed products per candidate, at most; 0 = 2
	TopK    int   // hybrid: candidates to measure; 0 = 2
	Seed    int64 // retry-jitter seed; fixed default keeps runs reproducible
	// History enables incremental tuning over pair shape classes, reusing
	// decisions within DefaultPairHistoryRadius.
	History *PairHistory
	// Predictor answers PolicyPredict queries (a trained pair forest).
	Predictor     PairPredictor
	MinConfidence float64 // 0 = DefaultMinConfidence
	// RetryBackoff mirrors the SMSV scheduler's transient-retry backoff.
	RetryBackoff time.Duration
}

// SpGEMMDecision records a dataflow choice for one A×B pair. Decisions are
// pooled; Release returns one for reuse (after which every field is
// invalid), matching the SMSV Decision contract.
type SpGEMMDecision struct {
	Policy               Policy
	AFeatures, BFeatures dataset.Features
	// Estimates ranks every supported candidate by modeled cost, ascending.
	Estimates []PairEstimate
	// Measured holds the fastest timed product of every candidate benchmarked,
	// the ones the measurement race dropped early included; Chosen's is the
	// smallest.
	Measured map[spgemm.Candidate]time.Duration
	Chosen   spgemm.Candidate
	// EstimatedNNZ is the feature-level output-size estimate; OutputNNZ is
	// the true entry count of the chosen candidate's product when the
	// decision measured (0 otherwise).
	EstimatedNNZ float64
	OutputNNZ    int64
	// Rung and Confidence are as on Decision.
	Rung       Rung
	Confidence float64
}

// Verdict returns the decision's answer and how it was reached. Its Measured
// is the decision's own map.
func (d *SpGEMMDecision) Verdict() Verdict[spgemm.Candidate] {
	return Verdict[spgemm.Candidate]{Candidate: d.Chosen, Rung: d.Rung, Confidence: d.Confidence,
		Measured: d.Measured, EstimatedNNZ: d.EstimatedNNZ, OutputNNZ: d.OutputNNZ}
}

var pairDecisionPool = sync.Pool{New: func() any { return new(SpGEMMDecision) }}

func newPairDecision() *SpGEMMDecision {
	d := pairDecisionPool.Get().(*SpGEMMDecision)
	*d = SpGEMMDecision{Estimates: d.Estimates[:0], Measured: d.Measured}
	if d.Measured == nil {
		d.Measured = make(map[spgemm.Candidate]time.Duration, 8)
	}
	clear(d.Measured)
	return d
}

// Release returns the decision to the pool; optional, like Decision.Release.
func (d *SpGEMMDecision) Release() {
	if d == nil {
		return
	}
	pairDecisionPool.Put(d)
}

// spgemmScratch is the pooled per-choose workspace and the SpGEMM workload
// the ladder drives: the multiply arena, the result buffer measurements
// write into, the shared feature extractor and, for one choose, the operands,
// their builds by format, each candidate's product size and the decision
// being filled in.
type spgemmScratch struct {
	ladderScratch[spgemm.Candidate]
	s         *SpGEMMScheduler
	mul       spgemm.Scratch
	out       spgemm.Result
	extractor dataset.Extractor

	a, b   *sparse.Builder
	am, bm [len(sparse.AllFormats)]sparse.Matrix // the builders' cached full builds
	nnz    [spgemm.NumCandidates]int64           // each candidate's last product's entries
	d      *SpGEMMDecision
}

// SpGEMMScheduler chooses the SpGEMM dataflow and operand formats for an
// A×B pair, running the same measure→History→predict ladder as the SMSV
// Scheduler over spgemm.Candidate space.
type SpGEMMScheduler struct {
	cfg     SpGEMMConfig
	ladder  ladder[[dataset.PairEmbedDims]float64, spgemm.Candidate]
	scratch sync.Pool
}

// NewSpGEMM creates a SpGEMMScheduler.
func NewSpGEMM(cfg SpGEMMConfig) *SpGEMMScheduler {
	if cfg.Exec == nil {
		cfg.Exec = exec.Default()
	}
	s := &SpGEMMScheduler{cfg: cfg}
	s.ladder = ladder[[dataset.PairEmbedDims]float64, spgemm.Candidate]{
		policy: cfg.Policy, topK: cfg.TopK, repeats: cfg.Repeats,
		minConfidence: cfg.MinConfidence, retryBackoff: cfg.RetryBackoff, seed: cfg.Seed,
		radius: DefaultPairHistoryRadius, predictor: cfg.Predictor != nil,
		span: "schedule.spgemm", op: "core: spgemm choose", noun: "spgemm candidate",
	}.withDefaults()
	if cfg.Policy == Empirical { // the one policy that measures the whole space
		s.ladder.space = spgemm.AppendCandidates(nil)
	}
	if cfg.History != nil {
		s.ladder.history = &cfg.History.radiusStore
	}
	s.scratch.New = func() any { return &spgemmScratch{s: s} }
	return s
}

// ChooseContext decides the dataflow for a.Dims()=M×K times b.Dims()=K×N,
// with cancellation and tracing as the SMSV scheduler's: the context is
// checked before every candidate build and between timed products, and when
// a telemetry trace rides ctx the decision is traced span by span (candidate builds, measurement attempts, retries,
// predictor and history lookups). Without a trace no spans are allocated.
func (s *SpGEMMScheduler) ChooseContext(ctx context.Context, a, b *sparse.Builder) (*SpGEMMDecision, error) {
	sc := s.scratch.Get().(*spgemmScratch)
	sc.a, sc.b = a, b
	v, err := s.ladder.choose(ctx, sc, &sc.ladderScratch)
	d := sc.d
	// A pooled scratch must not pin the caller's operands or decision.
	sc.a, sc.b, sc.d = nil, nil, nil
	clear(sc.am[:])
	clear(sc.bm[:])
	s.scratch.Put(sc)
	if err != nil {
		d.Release()
		return nil, err
	}
	d.Chosen = v.chosen
	d.Rung, d.Confidence = v.rung, v.confidence
	return d, nil
}

// prepare reads both operands' features off their canonical triplets; the
// operand formats a candidate multiplies are built when it is measured.
func (sc *spgemmScratch) prepare(ranked []spgemm.Candidate) (p [dataset.PairEmbedDims]float64, _ []spgemm.Candidate, err error) {
	ar, ac := sc.a.Dims()
	br, bc := sc.b.Dims()
	if ar == 0 || ac == 0 || br == 0 || bc == 0 {
		return p, nil, ErrEmptyPair
	}
	if ac != br {
		return p, nil, fmt.Errorf("core: spgemm: dimension mismatch %dx%d × %dx%d", ar, ac, br, bc)
	}
	d := newPairDecision()
	d.Policy = sc.s.cfg.Policy
	fa, _ := sc.extractor.Triplets(sc.a.Triplets())
	fb, _ := sc.extractor.Triplets(sc.b.Triplets())
	d.AFeatures, d.BFeatures = fa, fb
	d.EstimatedNNZ = dataset.EstimateOutputNNZ(fa, fb)
	d.Estimates = AppendPairEstimates(d.Estimates[:0], fa, fb)
	ranked = slices.Grow(ranked, len(d.Estimates))
	for _, e := range d.Estimates {
		ranked = append(ranked, e.Candidate)
	}
	sc.d = d
	return dataset.EmbedPair(fa, fb), ranked, nil
}

func (sc *spgemmScratch) predict() (spgemm.Candidate, float64, bool) {
	return sc.s.cfg.Predictor.PredictPair(sc.d.AFeatures, sc.d.BFeatures)
}

// usable builds nothing: the decision names a dataflow without carrying the
// operands, so an unmeasured candidate only needs a kernel that exists.
func (sc *spgemmScratch) usable(c spgemm.Candidate) bool { return spgemm.Supported(c) }

// build readies c's operands: A in its A-side format, B in its B-side one.
func (sc *spgemmScratch) build(c spgemm.Candidate) (err error) {
	a, b := &sc.am[c.AFormat], &sc.bm[c.BFormat]
	if *a == nil {
		*a, err = sc.a.Build(c.AFormat)
	}
	if err == nil && *b == nil {
		*b, err = sc.b.Build(c.BFormat)
	}
	return err
}

// sample draws nothing: every repetition is the one full product.
func (sc *spgemmScratch) sample(*rand.Rand) int { return 1 }

// run is one full product under the candidate's dataflow. It lands in
// sc.out, whose entry count is kept for measured to read for OutputNNZ.
func (sc *spgemmScratch) run(c spgemm.Candidate, _ int) error {
	err := sc.mul.Multiply(c, sc.am[c.AFormat], sc.bm[c.BFormat], &sc.out, sc.s.cfg.Exec)
	sc.nnz[c.Index()] = int64(sc.out.NNZ())
	return err
}

// kernelPanic attributes the panic to the A-side format.
func (sc *spgemmScratch) kernelPanic(c spgemm.Candidate, p any) error {
	return &KernelPanicError{Format: c.AFormat, Value: p}
}

func (sc *spgemmScratch) measured(c spgemm.Candidate, t time.Duration, chosen bool) {
	sc.d.Measured[c] = t
	if chosen {
		sc.d.OutputNNZ = sc.nnz[c.Index()]
	}
}
