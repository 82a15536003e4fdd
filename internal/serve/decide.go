package serve

import (
	"context"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/telemetry"
)

// This file is the decide pipeline every scheduled workload shares: cache
// probe → cache.do span → singleflight → breaker → admission → choose →
// rung classification → publish. A workload plugs in through the table
// below; the pipeline itself never learns which one it is serving.

// candidate is a workload's label type: a map key with the String form
// that histories, models and harvest records persist.
type candidate interface {
	comparable
	fmt.Stringer
}

// decision is a scheduler's pooled answer, as newEntry reads it.
type decision[C candidate] interface {
	Verdict() core.Verdict[C]
	Release()
}

// workload is one scheduled workload's side of the pipeline. In is the
// parsed operand bundle a request carries (builders plus features), C the
// candidate type and R the row a reply reports a measurement as. Both
// workloads share the measurement breaker and the admission slots — they
// queue kernels onto the same exec pool — so those stay on the Server. The
// table is filled once in NewServer; a request constructs nothing.
type workload[In any, C candidate, R evidenceRow[C, R]] struct {
	cache *Cache[*Cached[C, R]]
	// choose runs the policy's shared scheduler on in.
	choose func(ctx context.Context, policy core.Policy, in In) (decision[C], error)
	// history, predict and model are the degrade ladder's lookups with the
	// measurement path down: the tuning history, the predictor at any
	// confidence, and the cost model, which always answers and also gives
	// the output-size estimate (SpGEMM) a degraded entry carries.
	history func(in In) (C, bool)
	predict func(in In) (c C, confidence float64, ok bool)
	model   func(in In) (c C, estimatedNNZ float64)
	// publish gossips a fresh decision to the ring successor and feeds the
	// online flywheel; it runs on the singleflight leader only.
	publish func(key []byte, in In, val *Cached[C, R])
	// parse reads a candidate's string form off the wire.
	parse func(string) (C, error)
	// classNoun names the cache key's space in trace lines and logs.
	classNoun string

	// record stores a peer's replicated tuning-history entry.
	record func(in In, c C)

	decideCounts
}

// decideCounts is what the decide pipeline counts for one workload.
type decideCounts struct {
	measurements       atomic.Int64 // scheduler runs that actually measured
	degraded           atomic.Int64 // decisions served without measurement under failure
	predictorHits      atomic.Int64 // decisions answered by the predictor
	predictorFallbacks atomic.Int64 // predict-policy runs that measured instead
	predictorConfMilli atomic.Int64 // sum of hit confidences ×1000, for the mean
}

// decide serves one parsed request from the workload's decision cache,
// measuring under admission control on a miss. The byte-slice key is
// borrowed from the caller (a pooled buffer on the batch path) and is only
// read, never retained: the steady-state hit path — hash, map probe, LRU
// touch — allocates nothing, which is what lets a warm batched request
// decide N matrices with no per-item garbage. The outcome is "hit",
// "dedup", or "miss", as for Cache.Do.
func decide[In any, C candidate, R evidenceRow[C, R]](ctx context.Context, s *Server, w *workload[In, C, R], policy core.Policy, key []byte, in In) (*Cached[C, R], string, error) {
	if val, ok := w.cache.Get(key); ok {
		// A hit's cache span is a leaf, and the key is copied into the
		// trace's own bytes: traced or not, the hit allocates nothing.
		telemetry.StartLeaf(ctx, "cache.do", telemetry.Bytes("key", key),
			telemetry.String("outcome", "hit"), telemetry.String("source", val.Rung.String())).End()
		return val, "hit", nil
	}
	// The cache span parents the scheduler's spans: the singleflight leader
	// computes under this request's context, so its trace carries the full
	// candidate/measurement tree while deduped waiters show only the join.
	cctx, csp := telemetry.StartSpan(ctx, "cache.do", telemetry.Bytes("key", key))
	mctx, cancel := context.WithTimeout(cctx, s.cfg.Timeout)
	defer cancel()
	val, outcome, err := w.cache.Do(string(key), func() (*Cached[C, R], error) {
		return lead(mctx, s, w, policy, in)
	})
	if err != nil {
		csp.EndErr(err)
		return val, outcome, err
	}
	csp.Annotate(telemetry.String("outcome", outcome), telemetry.String("source", val.Rung.String()))
	csp.End()
	if outcome == "miss" {
		// Only the computing leader publishes, so one fresh decision
		// gossips once and is one training record no matter how many
		// requests deduplicated onto it.
		w.publish(key, in, val)
	}
	return val, outcome, nil
}

// lead is the singleflight leader's body. Only the leader reaches here, so
// the breaker sees one Allow per computation, not one per deduplicated
// waiter.
func lead[In any, C candidate, R evidenceRow[C, R]](ctx context.Context, s *Server, w *workload[In, C, R], policy core.Policy, in In) (*Cached[C, R], error) {
	if !s.breaker.Allow() {
		return degrade(s, w, in), nil
	}
	// Admission bounds how many leaders may queue measurement kernels
	// onto the exec pool. Overload is not a measurement outcome, so it
	// must release the breaker (a half-open probe slot in particular)
	// rather than count for or against it.
	select {
	case s.sem <- struct{}{}:
	default:
		s.breaker.Cancel()
		return nil, ErrOverloaded
	}
	defer func() { <-s.sem }()
	t0 := time.Now()
	d, err := w.choose(ctx, policy, in)
	if err != nil {
		if isMeasurementFailure(err) {
			s.breaker.Failure()
			return degrade(s, w, in), nil
		}
		s.breaker.Cancel()
		return nil, err
	}
	s.observeDecision(ctx, time.Since(t0))
	val := newEntry[C, R](d)
	switch val.Rung {
	case core.RungPredictor:
		// History/predictor answered without measuring: no evidence either
		// way, so release the breaker without moving it.
		s.breaker.Cancel()
		w.predictorHits.Add(1)
		w.predictorConfMilli.Add(int64(val.Confidence * 1000))
	case core.RungHistory:
		s.breaker.Cancel()
	default:
		s.breaker.Success()
		w.measurements.Add(1)
		if policy == core.PolicyPredict {
			w.predictorFallbacks.Add(1)
		}
	}
	return val, nil
}

// newEntry is the one conversion of a scheduler decision into a cache
// entry. Decisions are pooled, so the entry owns a copy of the measurement
// evidence, and the decision is released.
func newEntry[C candidate, R evidenceRow[C, R]](d decision[C]) *Cached[C, R] {
	val := &Cached[C, R]{Verdict: d.Verdict()}
	if len(val.Measured) == 0 {
		val.Measured = nil
	} else {
		val.Measured = maps.Clone(val.Measured)
	}
	d.Release()
	return val
}

// degrade produces a best-effort entry with the measurement path down, from
// the workload's ladder: tuning history first (closest to evidence), then
// the trained predictor at any confidence, then the cost model. The entry
// is Degraded, so it is cached only briefly and re-measured once the path
// recovers.
func degrade[In any, C candidate, R evidenceRow[C, R]](s *Server, w *workload[In, C, R], in In) *Cached[C, R] {
	w.degraded.Add(1)
	val := &Cached[C, R]{Degraded: true}
	// The cost model's estimate rides on whichever rung answers.
	val.Candidate, val.EstimatedNNZ = w.model(in)
	if c, ok := w.history(in); ok {
		val.Candidate, val.Rung = c, core.RungHistory
	} else if c, conf, ok := w.predict(in); ok {
		val.Candidate, val.Rung, val.Confidence = c, core.RungPredictor, conf
	}
	s.logger.Warn("serving degraded decision", "class", w.classNoun,
		"breaker", s.breaker.State().String(), "source", val.Rung.String(), "candidate", val.Candidate.String())
	return val
}

// harvest feeds one non-degraded measured decision to the online flywheel
// as a measurement-labeled training record; rec arrives with its kind,
// features and label set. Degraded, history-, and predictor-sourced
// decisions carry no fresh measurement evidence and are never harvested.
func harvest[C candidate, R evidenceRow[C, R]](s *Server, val *Cached[C, R], rec online.Record) {
	if s.cfg.Harvest == nil || val.IsDegraded() || val.Rung != core.RungMeasured || len(val.Measured) == 0 {
		return
	}
	rec.Times = make(map[string]int64, len(val.Measured))
	for c, d := range val.Measured {
		if d > 0 {
			rec.Times[c.String()] = int64(d)
		}
	}
	if _, ok := rec.Times[rec.Label]; !ok {
		return // winner's own measurement rounded to zero: not usable evidence
	}
	s.cfg.Harvest(rec)
}

// noteDecide explains a decide outcome in the reply's trace lines. answer
// is how the workload names what the predictor said (a bare format for
// SMSV, the full candidate for SpGEMM).
func noteDecide[C candidate, R evidenceRow[C, R]](s *Server, trace *traceLines, classNoun string, key []byte, outcome string, val *Cached[C, R], answer string, policy core.Policy) {
	class := func(lead string) *traceLines {
		return trace.text(lead).text(classNoun).text(" ").bytes(key)
	}
	switch outcome {
	case "hit":
		class("cache: hit for ").text(" (decision first ").text(val.Rung.String()).text(")").end()
		return
	case "dedup":
		class("cache: joined in-flight measurement for ").end()
		return
	}
	class("cache: miss for ").end()
	switch {
	case val.Degraded:
		trace.text("degraded: measurement unavailable (breaker ").text(s.breaker.State().String()).
			text("), answered from ").text(val.Rung.String()).end()
		return
	case val.Rung == core.RungHistory:
		trace.text("history: near-miss reuse, measurement skipped").end()
		return
	case val.Rung == core.RungPredictor:
		trace.text("predictor: answered ").text(answer).text(" with confidence ").fixed2(val.Confidence).
			text(", measurement skipped").end()
		return
	}
	if policy == core.PolicyPredict {
		trace.text("predictor: confidence ").fixed2(val.Confidence).
			text(" below threshold, falling back to measurement").end()
	}
	trace.text("admission: acquired 1 of ").int(cap(s.sem)).text(" measurement slots").end()
}
