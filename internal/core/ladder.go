package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// candidate is one point of a workload's decision space: comparable so
// measurements can be keyed by it, printable for spans and history files.
type candidate interface {
	comparable
	fmt.Stringer
}

// workload is what one scheduler supplies to the decision ladder, as
// methods on its pooled per-choose scratch, which holds the operands of the
// choose in progress; every method answers for that input.
type workload[P embedded, C candidate] interface {
	// prepare validates the operands, extracts their features into a fresh
	// decision, and appends every candidate to ranked by ascending modeled
	// cost. p is the features' embedded point, which keys the tuning history.
	prepare(ranked []C) (p P, _ []C, err error)
	// predict asks the trained predictor; ok=false means it has no answer.
	predict() (c C, confidence float64, ok bool)
	// usable readies what the decision carries for the chosen candidate,
	// measured or not; false means c cannot serve this input.
	usable(c C) bool
	// build readies the operands a measurement of c runs on, which may be a
	// sample of the input.
	build(c C) error
	// sample draws the measurement's trial inputs from rng, sizes the kernel
	// buffers, and reports how many trial inputs each candidate runs on.
	sample(rng *rand.Rand) int
	// run executes one kernel repetition of c on the given trial input.
	run(c C, trial int) error
	// kernelPanic converts a panic recovered around run into the error the
	// candidate fails with, leaving the scratch fit for the next candidate.
	kernelPanic(c C, p any) error
	// measured notes c's total time in the decision; best marks the fastest
	// candidate so far, whose by-products the decision reports.
	measured(c C, t time.Duration, best bool)
}

// ladderScratch is the ladder's share of a workload's pooled scratch: the
// ranked candidates, the ones about to be measured (set before sample, for a
// workload whose sampling depends on them), and the RNG trial sampling then
// retry jitter draw from.
type ladderScratch[C candidate] struct {
	cands   []C
	measure []C
	rng     *rand.Rand
}

// Rung is the rung of the decision ladder that answered: how a decision was
// reached. The zero value is the cost model alone.
type Rung uint8

// The ladder's rungs.
const (
	RungModel     Rung = iota // the cost model's ranking, nothing measured
	RungMeasured              // candidates were timed on the input
	RungHistory               // a recorded decision for a similar input
	RungPredictor             // the trained predictor, trusted without measuring
)

// rungNames are the rungs' wire words, the "source" of a decision reply.
var rungNames = [...]string{"model", "measured", "history", "predictor"}

// String returns the rung's wire word.
func (r Rung) String() string { return rungNames[r] }

// ParseRung is String's inverse; any other word is an error.
func ParseRung(word string) (Rung, error) {
	for r, name := range rungNames {
		if name == word {
			return Rung(r), nil
		}
	}
	return 0, fmt.Errorf("core: unknown decision source %q", word)
}

// Verdict is what a decision answered and how: the part of it that outlives
// the pooled decision, as a serving cache keeps it per shape class.
type Verdict[C comparable] struct {
	Candidate C
	Rung      Rung
	// Confidence is the predictor's vote share whenever it was consulted,
	// including answers that fell back to measurement.
	Confidence float64
	// Measured holds the time of every candidate that was timed. A verdict
	// read off a decision shares the decision's map: copy it before Release.
	Measured map[C]time.Duration
	// EstimatedNNZ and OutputNNZ are SpGEMM's output-size evidence: the
	// feature-level estimate, and the product's true entry count when the
	// decision measured. Both are zero for SMSV.
	EstimatedNNZ float64
	OutputNNZ    int64
}

// verdict is the ladder's answer, which each scheduler packs into its own
// exported decision type.
type verdict[C candidate] struct {
	chosen     C
	rung       Rung
	confidence float64 // as Verdict.Confidence
}

// ladder is the scheduling loop both workloads run: reuse a remembered
// decision for a similar input, else answer from the cost model or the
// trained predictor, else measure the surviving candidates and remember the
// winner. It holds the policy knobs of one scheduler, fixed at construction.
type ladder[P embedded, C candidate] struct {
	policy        Policy
	topK          int           // hybrid: candidates to measure; 0 = 2
	repeats       int           // timed repetitions per trial input; 0 = 2
	minConfidence float64       // predictor trust threshold; 0 = DefaultMinConfidence
	retryBackoff  time.Duration // first retry's backoff; 0 = 250µs
	seed          int64
	space         []C                // Empirical only: every candidate, in measuring order
	history       *radiusStore[P, C] // nil: no incremental tuning
	radius        float64            // history reuse threshold
	predictor     bool               // a trained predictor is configured
	span          string             // the decision's root span name
	op, noun      string             // error text: "core: choose", "candidate format"
}

func (l ladder[P, C]) withDefaults() ladder[P, C] {
	if l.topK <= 0 {
		l.topK = 2
	}
	if l.repeats <= 0 {
		l.repeats = 2
	}
	if l.minConfidence <= 0 {
		l.minConfidence = DefaultMinConfidence
	}
	if l.retryBackoff <= 0 {
		l.retryBackoff = defaultRetryBackoff
	}
	return l
}

// choose runs the ladder for the input w holds, traced span by span when a
// telemetry trace rides ctx. ctx is checked up front, before every candidate
// build and between timed repetitions; a cancelled decision records nothing.
func (l *ladder[P, C]) choose(ctx context.Context, w workload[P, C], ls *ladderScratch[C]) (v verdict[C], err error) {
	traced := telemetry.ContextTrace(ctx) != nil
	if traced {
		var sp telemetry.Span
		ctx, sp = telemetry.StartSpan(ctx, l.span, telemetry.String("policy", l.policy.String()))
		defer func() {
			if err == nil {
				sp.Annotate(telemetry.String("chosen", v.chosen.String()),
					telemetry.String("source", v.rung.String()))
			}
			sp.EndErr(err)
		}()
	}
	if err := ctx.Err(); err != nil {
		return v, fmt.Errorf("%s: %w", l.op, err)
	}
	p, ranked, err := w.prepare(ls.cands[:0])
	if err != nil {
		return v, err
	}
	ls.cands = ranked
	// Incremental auto-tuning: reuse a recorded decision for a similar
	// input before paying for any measurement.
	if l.history != nil {
		var hsp telemetry.Span
		if traced {
			hsp = telemetry.StartLeaf(ctx, "history.lookup")
		}
		c, ok := l.history.lookup(p, l.radius)
		if traced {
			hsp.Annotate(telemetry.String("hit", strconv.FormatBool(ok)))
			if ok {
				hsp.Annotate(telemetry.String("candidate", c.String()))
			}
			hsp.End()
		}
		// A remembered candidate this input cannot use (e.g. DIA over its
		// memory cap) falls through to a fresh decision.
		if ok && w.usable(c) {
			v.chosen, v.rung = c, RungHistory
			return v, nil
		}
	}

	// Hybrid, and a predict policy that falls back, measure the topK cheapest
	// modeled candidates; Empirical measures the whole space.
	measure := ranked[:min(l.topK, len(ranked))]
	switch l.policy {
	case RuleBased:
		for _, c := range ranked {
			// The model can rank first a candidate the input cannot build;
			// the next one stands in.
			if w.usable(c) {
				v.chosen = c
				return v, nil
			}
		}
		return v, fmt.Errorf("core: no usable %s", l.noun)
	case Empirical:
		measure = l.space
	case Hybrid:
	case PolicyPredict:
		if !l.predictor {
			return v, ErrNoPredictor
		}
		var psp telemetry.Span
		if traced {
			psp = telemetry.StartLeaf(ctx, "predictor.predict")
		}
		c, conf, ok := w.predict()
		// Chaos hook: model-staleness simulation jitters the vote share.
		conf = fault.Perturb("core.predict", conf)
		trusted := ok && conf >= l.minConfidence
		if traced {
			psp.Annotate(telemetry.String("candidate", c.String()),
				telemetry.String("confidence", strconv.FormatFloat(conf, 'f', 3, 64)),
				telemetry.String("trusted", strconv.FormatBool(trusted)))
			psp.End()
		}
		v.confidence = conf
		// The model can predict a candidate the input cannot use: measure
		// instead of failing. The fallback is recorded into the history
		// below, so retraining covers this shape class.
		if trusted && w.usable(c) {
			v.chosen, v.rung = c, RungPredictor
			return v, nil
		}
	default:
		return v, fmt.Errorf("core: unknown policy %d", int(l.policy))
	}

	if ls.rng == nil {
		ls.rng = rand.New(rand.NewSource(0))
	}
	ls.rng.Seed(l.seed + 1)
	ls.measure = measure
	trials := w.sample(ls.rng)
	bestTime := time.Duration(-1)
	var lastErr error
	for _, c := range measure {
		if err := ctx.Err(); err != nil {
			return v, fmt.Errorf("%s: %w", l.op, err)
		}
		cctx := ctx
		var candSp, bsp telemetry.Span
		if traced {
			cctx, candSp = telemetry.StartSpan(ctx, "candidate",
				telemetry.String("candidate", c.String()))
			bsp = telemetry.StartLeaf(cctx, "candidate.build")
		}
		err := fault.Inject("core.build")
		if err == nil {
			err = w.build(c)
		}
		bsp.EndErr(err)
		if err != nil {
			candSp.EndErr(err)
			lastErr = err
			continue
		}
		t, err := l.retryMeasure(cctx, w, c, trials, ls.rng, traced)
		if err != nil {
			candSp.EndErr(err)
			// Context expiry bounds the whole decision; anything else —
			// retries exhausted, a kernel panic on this candidate's data —
			// disqualifies only this candidate, so one poisoned candidate
			// cannot sink a decision the others can still win.
			if ctx.Err() != nil {
				return v, fmt.Errorf("%s: %w", l.op, ctx.Err())
			}
			lastErr = err
			continue
		}
		if traced {
			candSp.Annotate(telemetry.Dur("measured", t))
			candSp.End()
		}
		best := bestTime < 0 || t < bestTime
		if best {
			bestTime, v.chosen = t, c
		}
		w.measured(c, t, best)
	}
	if bestTime < 0 {
		return v, fmt.Errorf("core: no %s could be measured: %w", l.noun, lastErr)
	}
	v.rung = RungMeasured
	// What was timed may be a sample of the input; the decision carries the
	// winner readied in full.
	var wsp telemetry.Span
	if traced {
		wsp = telemetry.StartLeaf(ctx, "winner.build", telemetry.String("candidate", v.chosen.String()))
	}
	ok := w.usable(v.chosen)
	wsp.End()
	if !ok {
		return v, fmt.Errorf("core: measured %s %s cannot serve the whole input", l.noun, v.chosen)
	}
	if l.history != nil {
		l.history.record(p, v.chosen)
	}
	return v, nil
}

// measure times one candidate: a warm-up run, which faults pages in and
// sizes the kernel's output so the timed runs see steady state, then repeats
// runs on each trial input, returning their total. Cancellation is observed
// between runs — one kernel run is the granularity of abort. A panic inside
// a kernel (a poisoned dataset, or a worker fault re-raised by the pool) is
// recovered into an error, so a measurement failure is never a crash.
func (l *ladder[P, C]) measure(ctx context.Context, w workload[P, C], c C, trials int, traced bool) (total time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			total, err = 0, w.kernelPanic(c, p)
		}
	}()
	var wsp telemetry.Span
	if traced {
		wsp = telemetry.StartLeaf(ctx, "measure.warmup")
	}
	err = w.run(c, 0)
	wsp.EndErr(err)
	if err != nil {
		return 0, err
	}
	for ti := 0; ti < trials; ti++ {
		for r := 0; r < l.repeats; r++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			// Chaos hooks: injected measurement failure, then timer skew and
			// result perturbation over the measured repetition.
			if err := fault.Inject("core.measure"); err != nil {
				return 0, err
			}
			var rsp telemetry.Span
			if traced {
				rsp = telemetry.StartLeaf(ctx, "measure.rep",
					telemetry.Int("trial", ti), telemetry.Int("rep", r))
			}
			start := time.Now()
			err := w.run(c, ti)
			rsp.EndErr(err)
			if err != nil {
				return 0, err
			}
			elapsed := fault.Skew("core.measure", time.Since(start))
			total += time.Duration(fault.Perturb("core.measure", float64(elapsed)))
		}
	}
	return total, nil
}
