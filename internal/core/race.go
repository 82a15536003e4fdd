package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// grossLoss is the first round's cut: a candidate whose first sample is more
// than grossLoss times the fastest first sample leaves the race at once,
// before the spread of any candidate is known.
const grossLoss = 2

// now is the race's clock: a variable so that a test can time scripted
// kernels exactly.
var now = time.Now

// racer is one candidate of a decision's measurement race.
type racer[C candidate] struct {
	c           C
	best, worst time.Duration // the fastest and the slowest timed sample
	samples     int           // timed samples so far
	attempts    int           // failed attempts so far, against DefaultMeasureRetries
	state       racerState
	// cctx and actx carry the candidate span and its open measure.attempt
	// span when the decision is traced, and the decision's context otherwise.
	cctx, actx    context.Context
	span, attempt telemetry.Span
}

type racerState uint8

const (
	racing racerState = iota
	beaten            // dropped by the samples: still a measured candidate
	failed            // its build, warm-up or retries failed: not measured
)

// race times the candidates of measure against each other and returns the
// winner, the candidate with the fastest sample. Each candidate is first
// built and warmed: a build fault or a failed warm-up disqualifies it. Then
// rounds: each times every surviving candidate once, all on the same trial
// input, in an order that rotates by one each round so that no candidate
// always runs first or right after another's kernel. After each round cut
// drops the candidates the samples already rule out. The race ends when one
// candidate survives or after trials × repeats rounds; a candidate's Measured
// time is its fastest sample, whenever it left.
//
// A transient failure of one sample is retried after a seeded backoff, up to
// DefaultMeasureRetries times per candidate; a kernel panic or an exhausted
// budget disqualifies that candidate only. ctx is checked before every
// build and every sample; its expiry aborts the decision.
func (l *ladder[P, C]) race(ctx context.Context, w workload[P, C], measure []C, trials int, rng *rand.Rand, traced bool) (winner C, err error) {
	// The entrants live in this frame while they fit, so that a race
	// allocates nothing for them, even on a fresh scheduler.
	var seats [16]racer[C]
	rs := seats[:0]
	defer func() {
		if err != nil {
			for i := range rs {
				if rs[i].state == racing {
					rs[i].end(err)
				}
			}
		}
	}()
	var lastErr error
	for _, c := range measure {
		if err := ctx.Err(); err != nil {
			return winner, fmt.Errorf("%s: %w", l.op, err)
		}
		r := racer[C]{c: c, cctx: ctx, actx: ctx}
		var bsp telemetry.Span
		if traced {
			r.cctx, r.span = telemetry.StartSpan(ctx, "candidate", telemetry.String("candidate", c.String()))
			bsp = telemetry.StartLeaf(r.cctx, "candidate.build")
		}
		err := fault.Inject("core.build")
		if err == nil {
			err = w.build(c)
		}
		bsp.EndErr(err)
		if err == nil {
			r.begin(traced)
			_, err = l.once(r.actx, w, c, 0, -1, traced)
		}
		if err != nil {
			r.end(err)
			lastErr = err
			continue
		}
		rs = append(rs, r)
	}

	live := len(rs)
	for round := 0; live > 0 && round < trials*l.repeats; round++ {
		trial, rep := round/l.repeats, round%l.repeats
		for k := range rs {
			r := &rs[(round+k)%len(rs)]
			if r.state != racing {
				continue
			}
			if err := ctx.Err(); err != nil {
				return winner, fmt.Errorf("%s: %w", l.op, err)
			}
			t, err := l.sample(w, r, trial, rep, rng, traced)
			if err != nil {
				// Context expiry bounds the whole decision; anything else —
				// retries exhausted, a kernel panic on this candidate's data —
				// disqualifies only this candidate, so one poisoned candidate
				// cannot sink a decision the others can still win.
				if ctx.Err() != nil {
					return winner, fmt.Errorf("%s: %w", l.op, ctx.Err())
				}
				r.state, lastErr = failed, err
				r.end(err)
				live--
				continue
			}
			if r.samples == 0 || t < r.best {
				r.best = t
			}
			r.worst = max(r.worst, t)
			r.samples++
		}
		if live = cut(rs, round, l.repeats, traced); live <= 1 {
			break
		}
	}

	win := -1
	for i := range rs {
		if rs[i].state != failed && (win < 0 || rs[i].best < rs[win].best) {
			win = i
		}
	}
	if win < 0 {
		return winner, fmt.Errorf("core: no %s could be measured: %w", l.noun, lastErr)
	}
	for i := range rs {
		r := &rs[i]
		if r.state == racing {
			r.finish(traced)
		}
		if r.state != failed {
			w.measured(r.c, r.best, i == win)
		}
	}
	return rs[win].c, nil
}

// cut drops the racing candidates that the samples so far rule out, and
// returns how many race on. The incumbent is the candidate with the fastest
// sample. Once both have been timed repeats times, and at least twice, on the
// first trial input, a candidate whose fastest sample is slower than the
// incumbent's slowest leaves: the two ranges no longer overlap, so the
// host's noise, which widens both, cannot explain the gap. After the first
// round, when nothing is known of the spread, only a gross loss drops a
// candidate.
func cut[C candidate](rs []racer[C], round, repeats int, traced bool) (live int) {
	lead := -1
	for i := range rs {
		if rs[i].state == racing && (lead < 0 || rs[i].best < rs[lead].best) {
			lead = i
		}
	}
	if lead < 0 {
		return 0
	}
	inc := &rs[lead]
	for i := range rs {
		r := &rs[i]
		if r.state != racing || i == lead {
			continue
		}
		if round >= max(repeats, 2)-1 && r.best > inc.worst ||
			round == 0 && r.best > grossLoss*inc.best {
			r.state = beaten
			r.finish(traced)
			continue
		}
		live++
	}
	return live + 1
}

// begin opens the candidate's next measure.attempt span.
func (r *racer[C]) begin(traced bool) {
	if traced {
		r.actx, r.attempt = telemetry.StartSpan(r.cctx, "measure.attempt", telemetry.Int("attempt", r.attempts))
	}
}

// finish closes a measured candidate's spans, noting its fastest sample and
// how many it took.
func (r *racer[C]) finish(traced bool) {
	if traced {
		r.attempt.End()
		r.span.Annotate(telemetry.Dur("measured", r.best), telemetry.Int("samples", r.samples))
		r.span.End()
	}
}

// end closes the candidate's spans with the error it failed with.
func (r *racer[C]) end(err error) {
	r.attempt.EndErr(err)
	r.span.EndErr(err)
}

// sample times one run of r's candidate on trial input trial, as repetition
// rep of it. A transient failure is retried, after backoff, in a new
// measure.attempt span, while the candidate's retry budget lasts.
func (l *ladder[P, C]) sample(w workload[P, C], r *racer[C], trial, rep int, rng *rand.Rand, traced bool) (time.Duration, error) {
	for {
		t, err := l.once(r.actx, w, r.c, trial, rep, traced)
		if err == nil {
			return t, nil
		}
		r.attempt.EndErr(err)
		if !IsTransient(err) || r.attempts >= DefaultMeasureRetries {
			return 0, err
		}
		if err := l.backoff(r.cctx, r.attempts, rng, traced); err != nil {
			return 0, err
		}
		r.attempts++
		r.begin(traced)
	}
}

// once runs c on trial input trial: the untimed warm-up when rep < 0, which
// faults pages in and sizes the kernel's output so that the timed runs see
// steady state, and otherwise timed repetition rep under the chaos hooks. A
// panic inside a kernel (a poisoned dataset, or a worker fault re-raised by
// the pool) is recovered into an error, so a measurement failure is never a
// crash.
func (l *ladder[P, C]) once(ctx context.Context, w workload[P, C], c C, trial, rep int, traced bool) (t time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			t, err = 0, w.kernelPanic(c, p)
		}
	}()
	if rep < 0 {
		var wsp telemetry.Span
		if traced {
			wsp = telemetry.StartLeaf(ctx, "measure.warmup")
		}
		err = w.run(c, trial)
		wsp.EndErr(err)
		return 0, err
	}
	// Chaos hooks: injected measurement failure, then timer skew and result
	// perturbation over the timed run.
	if err := fault.Inject("core.measure"); err != nil {
		return 0, err
	}
	var rsp telemetry.Span
	if traced {
		rsp = telemetry.StartLeaf(ctx, "measure.rep", telemetry.Int("trial", trial), telemetry.Int("rep", rep))
	}
	start := now()
	err = w.run(c, trial)
	rsp.EndErr(err)
	if err != nil {
		return 0, err
	}
	elapsed := fault.Skew("core.measure", now().Sub(start))
	return time.Duration(fault.Perturb("core.measure", float64(elapsed))), nil
}
