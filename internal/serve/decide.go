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
// source classification → publish. A workload plugs in through the table
// below; the pipeline itself never learns which one it is serving.

// candidate is a workload's label type: a map key with the String form
// that histories, models and harvest records persist.
type candidate interface {
	comparable
	fmt.Stringer
}

// decided is what the pipeline needs to know about a cached decision.
type decided interface {
	Degradable
	// provenance reports how the decision was first obtained ("measured",
	// "history", "predictor" or "model") and the predictor's vote share
	// when one was consulted.
	provenance() (source string, confidence float64)
	// verdict is the decision as its owner answers a lookup leg with it.
	verdict() decisionWire
}

// workload is one scheduled workload's side of the pipeline. In is the
// parsed operand bundle a request carries (builders plus features), V the
// cached decision. Both workloads share the measurement breaker and the
// admission slots — they queue kernels onto the same exec pool — so those
// stay on the Server. The table is filled once in NewServer; a request
// constructs nothing.
type workload[In any, V decided] struct {
	cache *Cache[V]
	// choose runs the policy's shared scheduler and returns the decision
	// in cacheable form: decisions are pooled, so the value owns a copy of
	// the measurement evidence.
	choose func(ctx context.Context, policy core.Policy, in In) (V, error)
	// degrade answers with the measurement path down: history, then the
	// predictor at any confidence, then the cost model.
	degrade func(in In) V
	// publish gossips a fresh decision to the ring successor and feeds the
	// online flywheel; it runs on the singleflight leader only.
	publish func(key []byte, in In, val V)
	// fromWire rebuilds a decision from its wire form: a gossiped entry, or
	// the owner's answer to a lookup leg.
	fromWire func(decisionWire) (V, error)
	// classNoun names the cache key's space in response trace lines.
	classNoun string

	measurements atomic.Int64 // scheduler runs that actually measured
	degraded     atomic.Int64 // decisions served without measurement under failure
}

// decide serves one parsed request from the workload's decision cache,
// measuring under admission control on a miss. The byte-slice key is
// borrowed from the caller (a pooled buffer on the batch path) and is only
// read, never retained: the steady-state hit path — hash, map probe, LRU
// touch — allocates nothing, which is what lets a warm batched request
// decide N matrices with no per-item garbage. The outcome is "hit",
// "dedup", or "miss", as for Cache.Do.
func decide[In any, V decided](ctx context.Context, s *Server, w *workload[In, V], policy core.Policy, key []byte, in In) (V, string, error) {
	if val, ok := w.cache.Get(key); ok {
		// A hit's cache span is a leaf, and the key is copied into the
		// trace's own bytes: traced or not, the hit allocates nothing.
		source, _ := val.provenance()
		telemetry.StartLeaf(ctx, "cache.do", telemetry.Bytes("key", key),
			telemetry.String("outcome", "hit"), telemetry.String("source", source)).End()
		return val, "hit", nil
	}
	// The cache span parents the scheduler's spans: the singleflight leader
	// computes under this request's context, so its trace carries the full
	// candidate/measurement tree while deduped waiters show only the join.
	cctx, csp := telemetry.StartSpan(ctx, "cache.do", telemetry.Bytes("key", key))
	mctx, cancel := context.WithTimeout(cctx, s.cfg.Timeout)
	defer cancel()
	val, outcome, err := w.cache.Do(string(key), func() (V, error) {
		return lead(mctx, s, w, policy, in)
	})
	if err != nil {
		csp.EndErr(err)
		return val, outcome, err
	}
	source, _ := val.provenance()
	csp.Annotate(telemetry.String("outcome", outcome), telemetry.String("source", source))
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
func lead[In any, V decided](ctx context.Context, s *Server, w *workload[In, V], policy core.Policy, in In) (V, error) {
	var none V
	if !s.breaker.Allow() {
		w.degraded.Add(1)
		return w.degrade(in), nil
	}
	// Admission bounds how many leaders may queue measurement kernels
	// onto the exec pool. Overload is not a measurement outcome, so it
	// must release the breaker (a half-open probe slot in particular)
	// rather than count for or against it.
	select {
	case s.sem <- struct{}{}:
	default:
		s.breaker.Cancel()
		return none, ErrOverloaded
	}
	defer func() { <-s.sem }()
	t0 := time.Now()
	val, err := w.choose(ctx, policy, in)
	if err != nil {
		if isMeasurementFailure(err) {
			s.breaker.Failure()
			w.degraded.Add(1)
			return w.degrade(in), nil
		}
		s.breaker.Cancel()
		return none, err
	}
	s.observeDecision(ctx, time.Since(t0))
	switch source, confidence := val.provenance(); source {
	case "predictor":
		// History/predictor answered without measuring: no evidence either
		// way, so release the breaker without moving it.
		s.breaker.Cancel()
		s.predictorHits.Add(1)
		s.predictorConfMilli.Add(int64(confidence * 1000))
	case "history":
		s.breaker.Cancel()
	default:
		s.breaker.Success()
		w.measurements.Add(1)
		if policy == core.PolicyPredict {
			s.predictorFallbacks.Add(1)
		}
	}
	return val, nil
}

// copyMeasured gives a cache entry its own copy of a pooled decision's
// measurement evidence; nil when nothing was measured.
func copyMeasured[C comparable](m map[C]time.Duration) map[C]time.Duration {
	if len(m) == 0 {
		return nil
	}
	return maps.Clone(m)
}

// harvest feeds one non-degraded measured decision to the online flywheel
// as a measurement-labeled training record; rec arrives with its kind,
// features and label set. Degraded, history-, and predictor-sourced
// decisions carry no fresh measurement evidence and are never harvested.
func harvest[C candidate](s *Server, val decided, rec online.Record, measured map[C]time.Duration) {
	source, _ := val.provenance()
	if s.cfg.Harvest == nil || val.IsDegraded() || source != "measured" || len(measured) == 0 {
		return
	}
	rec.Times = make(map[string]int64, len(measured))
	for c, d := range measured {
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
func (s *Server) noteDecide(trace *traceLines, classNoun string, key []byte, outcome string, val decided, answer string, policy core.Policy) {
	source, confidence := val.provenance()
	class := func(lead string) *traceLines {
		return trace.text(lead).text(classNoun).text(" ").bytes(key)
	}
	switch outcome {
	case "hit":
		class("cache: hit for ").text(" (decision first ").text(source).text(")").end()
		return
	case "dedup":
		class("cache: joined in-flight measurement for ").end()
		return
	}
	class("cache: miss for ").end()
	switch {
	case val.IsDegraded():
		trace.text("degraded: measurement unavailable (breaker ").text(s.breaker.State().String()).
			text("), answered from ").text(source).end()
		return
	case source == "history":
		trace.text("history: near-miss reuse, measurement skipped").end()
		return
	case source == "predictor":
		trace.text("predictor: answered ").text(answer).text(" with confidence ").fixed2(confidence).
			text(", measurement skipped").end()
		return
	}
	if policy == core.PolicyPredict {
		trace.text("predictor: confidence ").fixed2(confidence).
			text(" below threshold, falling back to measurement").end()
	}
	trace.text("admission: acquired 1 of ").int(cap(s.sem)).text(" measurement slots").end()
}

// swapBox is an atomically swappable predictor: the schedulers and
// handlers hold one stable pointer for the server's lifetime while a model
// push or an online promotion replaces the model underneath with a single
// atomic store. The zero P means "no model loaded"; the per-workload
// wrappers answer ok=false then, which every caller already treats as
// "measure instead".
type swapBox[P comparable] struct {
	v     atomic.Pointer[P]
	swaps atomic.Int64
}

func (s *swapBox[P]) load() (p P) {
	if v := s.v.Load(); v != nil {
		p = *v
	}
	return p
}

// set installs p without counting a swap: the boot-time model.
func (s *swapBox[P]) set(p P) { s.v.Store(&p) }

// swap installs p (the zero P unloads the model) and counts the swap.
func (s *swapBox[P]) swap(p P) {
	s.set(p)
	s.swaps.Add(1)
}

// Loaded reports whether a model is present.
func (s *swapBox[P]) Loaded() bool {
	var none P
	return s.load() != none
}
