package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

func decodeSpGEMM(t *testing.T, w *httptest.ResponseRecorder) SpGEMMResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp SpGEMMResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// conformablePair renders A (rows×inner) and B (inner×cols) whose parsed
// dimensions are pinned by a final full-index row on each operand.
func conformablePair(rows, inner, cols int, seed int64) SpGEMMRequest {
	a := makeLIBSVM(rows-1, inner, 6, seed) + "+1 " + itoa(inner) + ":1\n"
	b := makeLIBSVM(inner-1, cols, 5, seed+1000) + "+1 " + itoa(cols) + ":1\n"
	return SpGEMMRequest{A: a, B: b}
}

func itoa(n int) string {
	var sb strings.Builder
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append(digits, byte('0'+n%10))
		n /= 10
	}
	for i := len(digits) - 1; i >= 0; i-- {
		sb.WriteByte(digits[i])
	}
	return sb.String()
}

func TestScheduleSpGEMMMeasuredThenCached(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, Repeats: 1})
	h := s.Handler()

	w := post(t, h, "/v1/schedule/spgemm", conformablePair(40, 32, 24, 1))
	d := decodeSpGEMM(t, w).Decision
	if d.Source != "measured" {
		t.Fatalf("source %q, want measured (trace: %v)", d.Source, d.Trace)
	}
	if len(d.Measured) == 0 {
		t.Fatal("hybrid spgemm decision has no measurements")
	}
	if _, err := spgemm.ParseCandidate(d.Chosen); err != nil {
		t.Fatalf("chosen %q does not parse: %v", d.Chosen, err)
	}
	if len(d.Estimates) != 5 {
		t.Fatalf("%d estimates, want 5", len(d.Estimates))
	}
	if d.EstimatedNNZ <= 0 || d.OutputNNZ <= 0 {
		t.Fatalf("output-size evidence missing: est %g, exact %d", d.EstimatedNNZ, d.OutputNNZ)
	}
	if d.AFeatures.M != 40 || d.AFeatures.N != 32 || d.BFeatures.M != 32 || d.BFeatures.N != 24 {
		t.Fatalf("echoed features %+v / %+v", d.AFeatures, d.BFeatures)
	}
	if s.SpGEMMMeasurements() != 1 {
		t.Fatalf("spgemm measurements = %d", s.SpGEMMMeasurements())
	}

	// The decision trace must be retrievable while it lives in the ring.
	if d.TraceID == "" {
		t.Fatal("decision carries no trace id")
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+d.TraceID, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", rw.Code, rw.Body)
	}
	for _, want := range []string{"schedule-spgemm", "request.parse", "cache.do"} {
		if !strings.Contains(rw.Body.String(), want) {
			t.Fatalf("trace missing %q:\n%s", want, rw.Body)
		}
	}

	// Identical pair again: exact pair-key cache hit, no new measurement.
	w = post(t, h, "/v1/schedule/spgemm", conformablePair(40, 32, 24, 1))
	d2 := decodeSpGEMM(t, w).Decision
	if d2.Source != "cache" {
		t.Fatalf("second request source %q, want cache", d2.Source)
	}
	if d2.Chosen != d.Chosen {
		t.Fatalf("cache changed the decision: %s vs %s", d2.Chosen, d.Chosen)
	}
	if s.SpGEMMMeasurements() != 1 {
		t.Fatalf("cache hit re-measured: %d", s.SpGEMMMeasurements())
	}
	if hits, misses := s.pair.cache.hits.Load(), s.pair.cache.misses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("pair cache hits %d misses %d, want 1 and 1", hits, misses)
	}
}

func TestScheduleSpGEMMHistoryNearMiss(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, Repeats: 1})
	h := s.Handler()
	d := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", conformablePair(40, 32, 24, 7))).Decision
	if d.Source != "measured" {
		t.Fatalf("first source %q", d.Source)
	}
	if s.cfg.PairHistory.Len() != 1 {
		t.Fatalf("pair history has %d entries", s.cfg.PairHistory.Len())
	}
	// Same shape class, different seed: the quantized pair key may differ,
	// but the scheduler's radius lookup reuses the recorded decision.
	d2 := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", conformablePair(40, 32, 24, 8))).Decision
	if d2.Source != "history" && d2.Source != "cache" {
		t.Fatalf("near-miss source %q, want history or cache (trace: %v)", d2.Source, d2.Trace)
	}
	if s.SpGEMMMeasurements() != 1 {
		t.Fatalf("near miss re-measured: %d", s.SpGEMMMeasurements())
	}
}

func TestScheduleSpGEMMRuleBased(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := conformablePair(24, 20, 16, 3)
	req.Policy = "rule-based"
	d := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", req)).Decision
	if d.Source != "model" || len(d.Measured) != 0 {
		t.Fatalf("rule-based decision %+v", d)
	}
	if d.Chosen != d.Estimates[0].Candidate {
		t.Fatalf("chosen %s but cheapest estimate %s", d.Chosen, d.Estimates[0].Candidate)
	}
	if s.pair.cache.misses.Load() != 0 {
		t.Fatal("rule-based decision went through the pair cache")
	}
}

type fixedPairPredictor struct {
	c    spgemm.Candidate
	conf float64
}

func (p fixedPairPredictor) PredictPair(fa, fb dataset.Features) (spgemm.Candidate, float64, bool) {
	return p.c, p.conf, true
}

func TestScheduleSpGEMMPredictPolicy(t *testing.T) {
	s := newTestServer(t, Config{
		PairPredictor: fixedPairPredictor{c: spgemm.BaseCandidate, conf: 0.95},
	})
	h := s.Handler()
	req := conformablePair(30, 24, 18, 5)
	req.Policy = "predict"
	d := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", req)).Decision
	if d.Source != "predictor" || d.Chosen != spgemm.BaseCandidate.String() {
		t.Fatalf("predict decision source=%q chosen=%q", d.Source, d.Chosen)
	}
	if d.Confidence != 0.95 {
		t.Fatalf("confidence %g", d.Confidence)
	}
	if s.SpGEMMMeasurements() != 0 {
		t.Fatal("confident prediction measured anyway")
	}

	// Without a pair model the predict policy is a 400, mirroring the SMSV
	// endpoint's contract.
	s2 := newTestServer(t, Config{})
	w := post(t, s2.Handler(), "/v1/schedule/spgemm", SpGEMMRequest{A: "x", B: "y", Policy: "predict"})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "spgemm-predictor") {
		t.Fatalf("predict without model: %d %s", w.Code, w.Body)
	}
}

// TestPredictorCountersPerWorkload: each workload counts its own predictor
// hits, fallbacks and confidence. A SpGEMM prediction must not show up in the
// SMSV families, whose model is not even loaded here, nor the reverse.
func TestPredictorCountersPerWorkload(t *testing.T) {
	s := newTestServer(t, Config{
		PairPredictor: fixedPairPredictor{c: spgemm.BaseCandidate, conf: 0.95},
	})
	h := s.Handler()
	req := conformablePair(30, 24, 18, 5)
	req.Policy = "predict"
	if d := decodeSpGEMM(t, post(t, h, "/v1/schedule/spgemm", req)).Decision; d.Source != "predictor" {
		t.Fatalf("predict decision from %q", d.Source)
	}
	low := newTestServer(t, Config{
		PairPredictor: fixedPairPredictor{c: spgemm.BaseCandidate, conf: 0.3},
	})
	if d := decodeSpGEMM(t, post(t, low.Handler(), "/v1/schedule/spgemm", req)).Decision; d.Source != "measured" {
		t.Fatalf("low-confidence decision from %q", d.Source)
	}
	for srv, wants := range map[*Server][]string{
		s: {
			"layoutd_predictor_loaded 0",
			"layoutd_predictor_hits_total 0",
			"layoutd_predictor_confidence_milli_sum 0",
			"layoutd_spgemm_predictor_loaded 1",
			"layoutd_spgemm_predictor_hits_total 1",
			"layoutd_spgemm_predictor_fallbacks_total 0",
			"layoutd_spgemm_predictor_confidence_milli_sum 950",
		},
		low: {
			"layoutd_predictor_fallbacks_total 0",
			"layoutd_spgemm_predictor_hits_total 0",
			"layoutd_spgemm_predictor_fallbacks_total 1",
			"layoutd_spgemm_predictor_confidence_milli_sum 0",
		},
	} {
		body := getMetrics(t, srv.Handler())
		for _, want := range wants {
			if !strings.Contains(body, want+"\n") {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	if s.smsv.predictorHits.Load() != 0 || low.smsv.predictorFallbacks.Load() != 0 {
		t.Fatalf("SMSV counters moved: hits %d, fallbacks %d", s.smsv.predictorHits.Load(), low.smsv.predictorFallbacks.Load())
	}
}

func TestScheduleSpGEMMBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := map[string]struct {
		req  SpGEMMRequest
		want string
	}{
		"missing-b":   {SpGEMMRequest{A: makeLIBSVM(4, 4, 2, 1)}, "both operands"},
		"bad-policy":  {SpGEMMRequest{A: "x", B: "y", Policy: "nope"}, "unknown policy"},
		"unparseable": {SpGEMMRequest{A: "not libsvm at all::", B: makeLIBSVM(4, 4, 2, 1)}, "operand a"},
		"mismatch": {SpGEMMRequest{
			A: makeLIBSVM(9, 8, 4, 1) + "+1 8:1\n",
			B: makeLIBSVM(11, 6, 3, 2) + "+1 6:1\n",
		}, "dimension mismatch"},
	}
	for name, tc := range cases {
		w := post(t, h, "/v1/schedule/spgemm", tc.req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: %d %s (want 400 containing %q)", name, w.Code, w.Body, tc.want)
		}
	}
}

// TestSpGEMMMetricsExposed: the pair workload exports the same per-workload
// families as SMSV, and the cache ones move with real pair traffic — a
// request that joins an in-flight measurement, a capacity eviction, a
// degraded entry outliving its TTL.
func TestSpGEMMMetricsExposed(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, Config{Policy: core.Hybrid, Repeats: 1,
		CacheShards: 1, CacheCapacity: 1, DegradedTTL: time.Second})
	s.pair.cache.now = clk.Now
	h := s.Handler()
	const path = "/v1/schedule/spgemm"
	wantMetrics := func(wants ...string) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, want := range wants {
			if !strings.Contains(w.Body.String(), want+"\n") {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
	decodeSpGEMM(t, post(t, h, path, conformablePair(24, 20, 14, 9)))
	wantMetrics(
		"layoutd_spgemm_measurements_total 1",
		"layoutd_spgemm_cache_misses_total 1",
		"layoutd_spgemm_history_entries 1",
		"layoutd_spgemm_cache_dedups_total 0",
		"layoutd_spgemm_cache_evictions_total 0",
		"layoutd_spgemm_cache_expired_total 0",
		"layoutd_spgemm_cache_inflight 0",
		`layoutd_requests_total{endpoint="schedule-spgemm"} 1`,
	)

	// The leader of a second shape class blocks in its measurement while an
	// identical request joins it.
	const (
		pass = iota
		block
		fail
	)
	var mode atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	choose := s.pair.choose
	s.pair.choose = func(ctx context.Context, policy core.Policy, in pairIn) (decision[spgemm.Candidate], error) {
		switch mode.Load() {
		case block:
			entered <- struct{}{}
			<-release
		case fail:
			return nil, flake{errors.New("kernel flaked")}
		}
		return choose(ctx, policy, in)
	}
	mode.Store(block)
	second := conformablePair(40, 32, 24, 13)
	done := make(chan int, 2)
	go func() { done <- post(t, h, path, second).Code }()
	<-entered
	go func() { done <- post(t, h, path, second).Code }()
	for s.pair.cache.dedups.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	wantMetrics("layoutd_spgemm_cache_dedups_total 1", "layoutd_spgemm_cache_inflight 1")
	mode.Store(pass)
	close(release)
	if a, b := <-done, <-done; a != http.StatusOK || b != http.StatusOK {
		t.Fatalf("leader and joiner answered %d and %d", a, b)
	}
	// One shard of capacity one: caching the second class evicted the first.
	wantMetrics("layoutd_spgemm_cache_evictions_total 1", "layoutd_spgemm_cache_inflight 0")

	// A failed measurement caches a degraded entry for the TTL only; the
	// next request after it lapses drops it and decides afresh.
	mode.Store(fail)
	third := conformablePair(30, 26, 18, 5)
	if d := decodeSpGEMM(t, post(t, h, path, third)).Decision; !d.Degraded {
		t.Fatalf("failed measurement was not degraded: %+v", d)
	}
	mode.Store(pass)
	clk.Advance(2 * time.Second)
	if d := decodeSpGEMM(t, post(t, h, path, third)).Decision; d.Degraded || d.Source == "cache" {
		t.Fatalf("lapsed degraded entry was not re-decided: %+v", d)
	}
	wantMetrics("layoutd_spgemm_cache_expired_total 1", "layoutd_spgemm_degraded_total 1")
}

func TestPairKeyStability(t *testing.T) {
	fa := dataset.Features{M: 100, N: 80, NNZ: 500, Mdim: 10, Adim: 5, Vdim: 2, Density: 0.06}
	fb := dataset.Features{M: 80, N: 60, NNZ: 400, Mdim: 9, Adim: 5, Vdim: 2, Density: 0.08}
	k1 := PairKey(fa, fb, "hybrid", 2)
	if !strings.HasPrefix(k1, pairKeyVersion+"|") {
		t.Fatalf("pair key %q missing schema prefix", k1)
	}
	if k1 != string(AppendPairKey(nil, fa, fb, "hybrid", 2)) {
		t.Fatal("PairKey and AppendPairKey disagree")
	}
	// Operand order matters: A×B and B×A are different products.
	if k1 == PairKey(fb, fa, "hybrid", 2) {
		t.Fatal("pair key is symmetric in its operands")
	}
	// Pair keys must never collide with the SMSV key space.
	if strings.HasPrefix(k1, keyVersion+"|") {
		t.Fatal("pair key aliases the SMSV key schema")
	}
}

func TestClusterReplicateAppliesSpGEMMKinds(t *testing.T) {
	nodes := startCluster(t, 2, nil)
	nd := nodes[0]
	good := spgemm.BaseCandidate.String()
	entry := func(kind, key string, payload any) cluster.ReplEntry {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.ReplEntry{Kind: kind, Key: key, Payload: raw}
	}
	payload := cluster.ReplicatePayload{From: "n2", Entries: []cluster.ReplEntry{
		entry(cluster.KindSpGEMM, "p1|hybrid/2|1,2,3|4,5,6", decisionWire{
			Candidate: good, Source: "measured", EstimatedNNZ: 128,
		}),
		entry(cluster.KindSpGEMM, "", decisionWire{Candidate: good}),             // keyless
		entry(cluster.KindSpGEMM, "p1|x", decisionWire{Candidate: "gustavson/"}), // unparseable candidate
		entry(cluster.KindPairHistory, "", pairHistoryWire{
			AFeatures: FeaturesJSON{M: 64, N: 32, NNZ: 300, Density: 0.15},
			BFeatures: FeaturesJSON{M: 32, N: 16, NNZ: 90, Density: 0.17},
			Candidate: good,
		}),
		entry(cluster.KindPairHistory, "", pairHistoryWire{Candidate: good}), // zero dims
	}}
	status, raw, _ := postURL(t, nd.url+cluster.ReplicatePath, payload)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp cluster.ReplicateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 || resp.Skipped != 3 {
		t.Fatalf("applied %d skipped %d, want 2/3", resp.Applied, resp.Skipped)
	}
	if !nd.srv.pair.cache.Peek([]byte("p1|hybrid/2|1,2,3|4,5,6")) {
		t.Fatal("replicated spgemm decision not in the pair cache")
	}
	if nd.srv.cfg.PairHistory.Len() != 1 {
		t.Fatalf("pair history len %d, want 1", nd.srv.cfg.PairHistory.Len())
	}
}

// TestScheduleDecisionExemplar: a freshly computed decision — rule-based or
// measured, on any of the three schedule endpoints — lands in the
// decision-duration histogram with the request's trace id as the bucket
// exemplar, so a slow bucket links to the decision's span tree.
func TestScheduleDecisionExemplar(t *testing.T) {
	data := makeLIBSVM(40, 30, 5, 3)
	for _, tc := range []struct {
		path    string
		body    func(policy string) any
		traceID func(w *httptest.ResponseRecorder) string
	}{
		{"/v1/schedule",
			func(policy string) any { return ScheduleRequest{Data: data, Policy: policy} },
			func(w *httptest.ResponseRecorder) string { return decodeSchedule(t, w).Decision.TraceID }},
		{"/v1/schedule/batch",
			func(policy string) any {
				return BatchScheduleRequest{Items: []ScheduleRequest{{Data: data, Policy: policy}}}
			},
			func(w *httptest.ResponseRecorder) string { return decodeBatch(t, w.Code, w.Body.Bytes()).TraceID }},
		{"/v1/schedule/spgemm",
			func(policy string) any {
				req := conformablePair(40, 32, 24, 3)
				req.Policy = policy
				return req
			},
			func(w *httptest.ResponseRecorder) string { return decodeSpGEMM(t, w).Decision.TraceID }},
	} {
		for _, policy := range []string{"rule-based", "hybrid"} {
			s := newTestServer(t, Config{Repeats: 1})
			h := s.Handler()
			id := tc.traceID(post(t, h, tc.path, tc.body(policy)))
			if id == "" {
				t.Fatalf("%s %s: response carries no trace_id", tc.path, policy)
			}
			mr := httptest.NewRecorder()
			h.ServeHTTP(mr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			exs := telemetry.ParseExemplars(mr.Body.String(), "layoutd_schedule_decision_duration_seconds")
			if len(exs) != 1 || exs[0].TraceID != id {
				t.Fatalf("%s %s: decision-duration exemplars %+v, want exactly the decision's trace %s", tc.path, policy, exs, id)
			}
		}
	}
}
