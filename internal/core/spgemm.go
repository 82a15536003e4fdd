package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
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
	flops := 0.0
	if fa.N > 0 {
		flops = float64(fa.NNZ) * float64(fb.NNZ) / float64(fa.N)
	}
	var out []PairEstimate
	for _, c := range spgemm.AppendCandidates(nil) {
		out = append(out, PairEstimate{
			Candidate: c,
			Cost: spgemm.EstimateCost(c, fa.M, fb.N,
				storedApprox(fa, c.AFormat), storedApprox(fb, c.BFormat), int64(flops)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Candidate.Index() < out[j].Candidate.Index()
	})
	return out
}

// SpGEMMConfig parameterizes a SpGEMMScheduler. The zero value is usable:
// hybrid policy, all cores, 2 timed products per candidate, top-2.
type SpGEMMConfig struct {
	Policy Policy
	// Exec is the execution context the product kernels run under; nil
	// means exec.Default().
	Exec    *exec.Exec
	Repeats int   // timed products per candidate; 0 = 2
	TopK    int   // hybrid: candidates to measure; 0 = 2
	Seed    int64 // retry-jitter seed; fixed default keeps runs reproducible
	// History enables incremental tuning over pair shape classes.
	History       *PairHistory
	HistoryRadius float64 // 0 = DefaultPairHistoryRadius
	// Predictor answers PolicyPredict queries (a trained pair forest).
	Predictor     PairPredictor
	MinConfidence float64 // 0 = DefaultMinConfidence
	// MeasureRetries / RetryBackoff mirror the SMSV scheduler's transient
	// retry bounds (0 = defaults, negative retries = never).
	MeasureRetries int
	RetryBackoff   time.Duration
}

func (c SpGEMMConfig) withDefaults() SpGEMMConfig {
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.HistoryRadius <= 0 {
		c.HistoryRadius = DefaultPairHistoryRadius
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

// SpGEMMDecision records a dataflow choice for one A×B pair. Decisions are
// pooled; Release returns one for reuse (after which every field is
// invalid), matching the SMSV Decision contract.
type SpGEMMDecision struct {
	Policy               Policy
	AFeatures, BFeatures dataset.Features
	// Estimates ranks every supported candidate by modeled cost, ascending.
	Estimates []PairEstimate
	// Measured holds the product time for every candidate benchmarked.
	Measured map[spgemm.Candidate]time.Duration
	Chosen   spgemm.Candidate
	// EstimatedNNZ is the feature-level output-size estimate; OutputNNZ is
	// the true entry count of the chosen candidate's product when the
	// decision measured (0 otherwise).
	EstimatedNNZ float64
	OutputNNZ    int64
	Reused       bool
	Predicted    bool
	Confidence   float64
}

var pairDecisionPool = sync.Pool{New: func() any { return new(SpGEMMDecision) }}

func newPairDecision() *SpGEMMDecision {
	d := pairDecisionPool.Get().(*SpGEMMDecision)
	d.Policy = 0
	d.AFeatures = dataset.Features{}
	d.BFeatures = dataset.Features{}
	d.Estimates = d.Estimates[:0]
	if d.Measured == nil {
		d.Measured = make(map[spgemm.Candidate]time.Duration, 8)
	} else {
		clear(d.Measured)
	}
	d.Chosen = spgemm.Candidate{}
	d.EstimatedNNZ = 0
	d.OutputNNZ = 0
	d.Reused = false
	d.Predicted = false
	d.Confidence = 0
	return d
}

// Release returns the decision to the pool; optional, like Decision.Release.
func (d *SpGEMMDecision) Release() {
	if d == nil {
		return
	}
	pairDecisionPool.Put(d)
}

// Source labels where the decision came from, with Decision.Source's
// vocabulary.
func (d *SpGEMMDecision) Source() string {
	return sourceOf(d.Predicted, d.Reused, len(d.Measured) > 0)
}

// spgemmScratch is the per-choose workspace: the multiply arena, the result
// buffer measurements write into, candidate lists, the shared feature
// extractor, and the retry-jitter RNG. Pooled per scheduler.
type spgemmScratch struct {
	mul       spgemm.Scratch
	out       spgemm.Result
	cands     []spgemm.Candidate
	extractor dataset.Extractor
	rng       *rand.Rand
}

// SpGEMMScheduler chooses the SpGEMM dataflow and operand formats for an
// A×B pair, running the same measure→History→predict ladder as the SMSV
// Scheduler over spgemm.Candidate space.
type SpGEMMScheduler struct {
	cfg     SpGEMMConfig
	scratch sync.Pool
}

// NewSpGEMM creates a SpGEMMScheduler.
func NewSpGEMM(cfg SpGEMMConfig) *SpGEMMScheduler {
	s := &SpGEMMScheduler{cfg: cfg.withDefaults()}
	s.scratch.New = func() any {
		return &spgemmScratch{rng: rand.New(rand.NewSource(s.cfg.Seed + 1))}
	}
	return s
}

// Choose decides the dataflow for a.Dims()=M×K times b.Dims()=K×N.
func (s *SpGEMMScheduler) Choose(a, b *sparse.Builder) (*SpGEMMDecision, error) {
	return s.ChooseContext(context.Background(), a, b)
}

// ChooseContext is Choose with cancellation and tracing, mirroring the SMSV
// scheduler: the context is checked before every candidate build and
// between timed products, and when a telemetry trace rides ctx the decision
// is traced span by span (candidate builds, measurement attempts, retries,
// predictor and history lookups). Without a trace no spans are allocated.
func (s *SpGEMMScheduler) ChooseContext(ctx context.Context, a, b *sparse.Builder) (*SpGEMMDecision, error) {
	traced := telemetry.ContextTrace(ctx) != nil
	var sp *telemetry.Span
	if traced {
		ctx, sp = telemetry.StartSpan(ctx, "schedule.spgemm",
			telemetry.String("policy", s.cfg.Policy.String()))
	}
	d, err := s.chooseContext(ctx, a, b, traced)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	if traced {
		sp.Annotate(telemetry.String("chosen", d.Chosen.String()),
			telemetry.String("source", d.Source()))
		sp.End()
	}
	return d, nil
}

func (s *SpGEMMScheduler) chooseContext(ctx context.Context, a, b *sparse.Builder, traced bool) (*SpGEMMDecision, error) {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar == 0 || ac == 0 || br == 0 || bc == 0 {
		return nil, ErrEmptyPair
	}
	if ac != br {
		return nil, fmt.Errorf("core: spgemm: dimension mismatch %dx%d × %dx%d", ar, ac, br, bc)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: spgemm choose: %w", err)
	}
	sc := s.scratch.Get().(*spgemmScratch)
	defer s.scratch.Put(sc)
	// CSR materializations give the features and are measurement operands
	// for most candidates anyway; the Builder caches them per format.
	acsr, err := a.Build(sparse.CSR)
	if err != nil {
		return nil, fmt.Errorf("core: spgemm: building CSR(A): %w", err)
	}
	bcsr, err := b.Build(sparse.CSR)
	if err != nil {
		return nil, fmt.Errorf("core: spgemm: building CSR(B): %w", err)
	}
	fa := sc.extractor.Extract(acsr)
	fb := sc.extractor.Extract(bcsr)

	d := newPairDecision()
	d.Policy = s.cfg.Policy
	d.AFeatures, d.BFeatures = fa, fb
	d.EstimatedNNZ = dataset.EstimateOutputNNZ(fa, fb)
	d.Estimates = append(d.Estimates[:0], EstimatePairCandidates(fa, fb)...)

	if s.cfg.History != nil {
		var hsp *telemetry.Span
		if traced {
			_, hsp = telemetry.StartSpan(ctx, "history.lookup")
		}
		c, ok := s.cfg.History.Lookup(fa, fb, s.cfg.HistoryRadius)
		if traced {
			hsp.Annotate(telemetry.String("hit", strconv.FormatBool(ok)))
			if ok {
				hsp.Annotate(telemetry.String("candidate", c.String()))
			}
			hsp.End()
		}
		if ok && spgemm.Supported(c) {
			d.Chosen = c
			d.Reused = true
			return d, nil
		}
	}

	var candidates []spgemm.Candidate
	switch s.cfg.Policy {
	case RuleBased:
		d.Chosen = d.Estimates[0].Candidate
		return d, nil
	case Empirical:
		sc.cands = spgemm.AppendCandidates(sc.cands[:0])
		candidates = sc.cands
	case Hybrid:
		candidates = s.topPairCandidates(sc, d.Estimates)
	case PolicyPredict:
		if s.cfg.Predictor == nil {
			d.Release()
			return nil, ErrNoPredictor
		}
		var psp *telemetry.Span
		if traced {
			_, psp = telemetry.StartSpan(ctx, "predictor.predict")
		}
		c, conf, ok := s.cfg.Predictor.PredictPair(fa, fb)
		// Chaos hook: model-staleness simulation jitters the vote share,
		// the same site the SMSV predictor path uses.
		conf = fault.Perturb("core.predict", conf)
		if traced {
			psp.Annotate(telemetry.String("candidate", c.String()),
				telemetry.String("confidence", strconv.FormatFloat(conf, 'f', 3, 64)),
				telemetry.String("trusted", strconv.FormatBool(ok && conf >= s.cfg.MinConfidence)))
			psp.End()
		}
		d.Confidence = conf
		if ok && conf >= s.cfg.MinConfidence && spgemm.Supported(c) {
			d.Chosen = c
			d.Predicted = true
			return d, nil
		}
		// Low confidence: measure the top candidates and record the result
		// into the pair history so retraining covers this shape class.
		candidates = s.topPairCandidates(sc, d.Estimates)
	default:
		d.Release()
		return nil, fmt.Errorf("core: unknown policy %d", int(s.cfg.Policy))
	}

	best := spgemm.Candidate{}
	bestTime := time.Duration(-1)
	var bestNNZ int64
	var lastErr error
	for _, c := range candidates {
		if err := ctx.Err(); err != nil {
			d.Release()
			return nil, fmt.Errorf("core: spgemm choose: %w", err)
		}
		cctx := ctx
		var candSp, bsp *telemetry.Span
		if traced {
			cctx, candSp = telemetry.StartSpan(ctx, "candidate",
				telemetry.String("candidate", c.String()))
			_, bsp = telemetry.StartSpan(cctx, "candidate.build")
		}
		err := fault.Inject("core.build")
		var am, bm sparse.Matrix
		if err == nil {
			if am, err = a.Build(c.AFormat); err == nil {
				bm, err = b.Build(c.BFormat)
			}
		}
		bsp.EndErr(err)
		if err != nil {
			candSp.EndErr(err)
			lastErr = err
			continue
		}
		t, err := retryMeasure(cctx, s.cfg.MeasureRetries, s.cfg.RetryBackoff, sc.rng, traced,
			func(actx context.Context) (time.Duration, error) { return s.measurePair(actx, c, am, bm, sc, traced) })
		if err != nil {
			candSp.EndErr(err)
			// Context expiry bounds the whole decision; anything else only
			// disqualifies this candidate.
			if ctx.Err() != nil {
				d.Release()
				return nil, fmt.Errorf("core: spgemm choose: %w", ctx.Err())
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
			bestTime, best = t, c
			bestNNZ = int64(sc.out.NNZ())
		}
	}
	if bestTime < 0 {
		d.Release()
		return nil, fmt.Errorf("core: no spgemm candidate could be measured: %w", lastErr)
	}
	d.Chosen = best
	d.OutputNNZ = bestNNZ
	if s.cfg.History != nil {
		s.cfg.History.RecordCandidate(fa, fb, d.Chosen)
	}
	return d, nil
}

// topPairCandidates lists the TopK cheapest modeled candidates, reusing the
// scratch buffer.
func (s *SpGEMMScheduler) topPairCandidates(sc *spgemmScratch, ests []PairEstimate) []spgemm.Candidate {
	k := min(s.cfg.TopK, len(ests))
	sc.cands = sc.cands[:0]
	for _, e := range ests[:k] {
		sc.cands = append(sc.cands, e.Candidate)
	}
	return sc.cands
}

// measurePair times Repeats full products under the candidate's dataflow
// after one warm-up pass, observing cancellation between products and
// recovering kernel panics into *KernelPanicError (attributed to the A-side
// format). The product lands in sc.out, whose entry count the caller reads
// for OutputNNZ.
func (s *SpGEMMScheduler) measurePair(ctx context.Context, c spgemm.Candidate, am, bm sparse.Matrix, sc *spgemmScratch, traced bool) (total time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			total, err = 0, &KernelPanicError{Format: c.AFormat, Value: p}
		}
	}()
	// Warm-up: fault pages in and size the result arena.
	var wsp *telemetry.Span
	if traced {
		_, wsp = telemetry.StartSpan(ctx, "measure.warmup")
	}
	if err := sc.mul.Multiply(c, am, bm, &sc.out, s.cfg.Exec); err != nil {
		wsp.EndErr(err)
		return 0, err
	}
	wsp.End()
	for r := 0; r < s.cfg.Repeats; r++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := fault.Inject("core.measure"); err != nil {
			return 0, err
		}
		var rsp *telemetry.Span
		if traced {
			_, rsp = telemetry.StartSpan(ctx, "measure.rep", telemetry.Int("rep", r))
		}
		start := time.Now()
		if err := sc.mul.Multiply(c, am, bm, &sc.out, s.cfg.Exec); err != nil {
			rsp.EndErr(err)
			return 0, err
		}
		rsp.End()
		elapsed := fault.Skew("core.measure", time.Since(start))
		total += time.Duration(fault.Perturb("core.measure", float64(elapsed)))
	}
	return total, nil
}
