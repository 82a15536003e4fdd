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
	// sample of the input. They are kept for the whole decision, beside every
	// other candidate's, since the candidates are timed in interleaved rounds.
	build(c C) error
	// sample draws the measurement's trial inputs from rng, sizes the kernel
	// buffers, and reports how many trial inputs each candidate runs on.
	sample(rng *rand.Rand) int
	// run executes one kernel repetition of c, on c's own operands, on the
	// given trial input.
	run(c C, trial int) error
	// kernelPanic converts a panic recovered around run into the error the
	// candidate fails with, leaving the scratch fit for the next candidate.
	kernelPanic(c C, p any) error
	// measured notes c's fastest timed sample in the decision; chosen marks
	// the winner, whose by-products the decision reports.
	measured(c C, t time.Duration, chosen bool)
}

// ladderScratch is the ladder's share of a workload's pooled scratch: the
// ranked candidates, and the RNG trial sampling then retry jitter draw from.
type ladderScratch[C candidate] struct {
	cands []C
	rng   *rand.Rand
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
	// Measured holds the fastest timed sample of every candidate that was
	// timed, the ones the race dropped early included; the chosen candidate's
	// is the smallest. A verdict read off a decision shares the decision's
	// map: copy it before Release.
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
	repeats       int           // rounds per trial input, at most; 0 = 2
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
// build and between timed samples; a cancelled decision records nothing.
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
	trials := w.sample(ls.rng)
	if v.chosen, err = l.race(ctx, w, measure, trials, ls.rng, traced); err != nil {
		return v, err
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
