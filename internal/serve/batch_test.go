package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

func decodeBatch(t *testing.T, code int, body []byte) BatchScheduleResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp BatchScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestScheduleBatchEndpoint drives the batched endpoint through a mixed
// batch — inline data, a profile, a bad item — and checks the per-item
// contract: Decisions[i] answers Items[i], a bad item fails alone, and all
// items share one trace.
func TestScheduleBatchEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	h := s.Handler()

	req := BatchScheduleRequest{Items: []ScheduleRequest{
		{Data: makeLIBSVM(60, 40, 6, 7)},
		{Profile: &FeaturesJSON{M: 1000, N: 500, NNZ: 5000, Ndig: 1, Dnnz: 5,
			Mdim: 10, Adim: 5, Vdim: 1, Density: 0.01}},
		{Data: "not libsvm at all ::"},
		{Data: makeLIBSVM(60, 40, 6, 7)}, // same shape class as item 0
	}}
	w := post(t, h, "/v1/schedule/batch", req)
	resp := decodeBatch(t, w.Code, w.Body.Bytes())

	if len(resp.Decisions) != len(req.Items) {
		t.Fatalf("%d results for %d items", len(resp.Decisions), len(req.Items))
	}
	if resp.TraceID == "" {
		t.Fatal("batch carries no trace_id")
	}
	d0 := resp.Decisions[0]
	if d0.Error != "" || d0.Decision == nil {
		t.Fatalf("item 0: %+v", d0)
	}
	if d0.Decision.Chosen == "" || d0.Decision.Chunk == "" || d0.Decision.Variant == "" {
		t.Fatalf("item 0 decision incomplete: %+v", d0.Decision)
	}
	if resp.Decisions[1].Decision == nil || resp.Decisions[1].Decision.Source != "model" {
		t.Fatalf("profile item: %+v", resp.Decisions[1])
	}
	if resp.Decisions[2].Error == "" || resp.Decisions[2].Decision != nil {
		t.Fatalf("bad item should fail alone: %+v", resp.Decisions[2])
	}
	if d3 := resp.Decisions[3]; d3.Decision == nil || d3.Decision.Source != "cache" {
		t.Fatalf("repeat shape class should hit the cache: %+v", d3)
	}
	// Every item's decision rides the batch's shared trace.
	for i, d := range resp.Decisions {
		if d.Decision != nil && d.Decision.TraceID != resp.TraceID {
			t.Fatalf("item %d trace %q != batch trace %q", i, d.Decision.TraceID, resp.TraceID)
		}
	}
	tr, ok := s.Traces().Get(resp.TraceID)
	if !ok {
		t.Fatal("batch trace not stored")
	}
	items := 0
	for _, sp := range tr.Spans {
		if sp.Name == "batch.item" {
			items++
		}
	}
	if items != len(req.Items) {
		t.Fatalf("%d batch.item spans for %d items", items, len(req.Items))
	}
}

// TestScheduleBatchEnvelopeValidation: only a malformed envelope fails the
// whole batch.
func TestScheduleBatchEnvelopeValidation(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	h := s.Handler()

	for name, req := range map[string]BatchScheduleRequest{
		"empty":      {},
		"oversized":  {Items: make([]ScheduleRequest, MaxBatchItems+1)},
		"bad policy": {Policy: "oracle", Items: []ScheduleRequest{{Data: "1 1:1\n"}}},
	} {
		if w := post(t, h, "/v1/schedule/batch", req); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, w.Code, w.Body)
		}
	}
	// Per-item policy overrides beat the batch default.
	req := BatchScheduleRequest{
		Policy: "rule-based",
		Items: []ScheduleRequest{
			{Data: makeLIBSVM(50, 30, 5, 3)},
			{Data: makeLIBSVM(50, 30, 5, 3), Policy: "empirical"},
			{Data: makeLIBSVM(50, 30, 5, 3), Policy: "predict"}, // no predictor loaded
		},
	}
	resp := decodeBatch(t, post(t, h, "/v1/schedule/batch", req).Code,
		post(t, h, "/v1/schedule/batch", req).Body.Bytes())
	if d := resp.Decisions[0].Decision; d == nil || d.Policy != "rule-based" || len(d.Measured) != 0 {
		t.Fatalf("rule-based item: %+v", resp.Decisions[0])
	}
	if d := resp.Decisions[1].Decision; d == nil || d.Policy != "empirical" {
		t.Fatalf("empirical override: %+v", resp.Decisions[1])
	}
	if resp.Decisions[2].Error == "" {
		t.Fatalf("predict without a model should fail the item: %+v", resp.Decisions[2])
	}
}

// TestScheduleBatchMatchesSingle: a batched decision for a shape class must
// agree with the single-request decision for the same data — same cache,
// same key schema, same joint candidate.
func TestScheduleBatchMatchesSingle(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	h := s.Handler()
	data := makeLIBSVM(60, 40, 6, 7)

	single := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: data}))
	w := post(t, h, "/v1/schedule/batch", BatchScheduleRequest{Items: []ScheduleRequest{{Data: data}}})
	batch := decodeBatch(t, w.Code, w.Body.Bytes())

	bd := batch.Decisions[0].Decision
	if bd == nil {
		t.Fatalf("batch item failed: %+v", batch.Decisions[0])
	}
	if bd.Source != "cache" {
		t.Fatalf("batch should hit the cache the single request warmed, got %q", bd.Source)
	}
	if bd.Chosen != single.Decision.Chosen || bd.Chunk != single.Decision.Chunk ||
		bd.Variant != single.Decision.Variant {
		t.Fatalf("batch decision %s/%s/%s != single %s/%s/%s",
			bd.Chosen, bd.Chunk, bd.Variant,
			single.Decision.Chosen, single.Decision.Chunk, single.Decision.Variant)
	}
}

// TestBatchHotPathAllocs is the PR's allocation-regression gate: once a
// shape class is cached, keying and deciding it again — the per-item body
// of the batched steady state — must cost at most 2 allocs/op (the pooled
// scratch Get/Put pair at worst; the key build and cache probe are free).
func TestBatchHotPathAllocs(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	feats := dataset.Features{M: 60, N: 40, NNZ: 360, Ndig: 2, Dnnz: 6,
		Mdim: 6, Adim: 6, Vdim: 0.2, Density: 0.15}
	key := AppendKey(nil, feats, "hybrid", 2)
	s.smsv.cache.Do(string(key), func() (*CachedDecision, error) {
		return &CachedDecision{Verdict: core.Verdict[sparse.Candidate]{
			Candidate: sparse.Candidate{Format: sparse.CSR, Variant: sparse.VariantFused},
			Rung:      core.RungMeasured,
		}}, nil
	})

	ctx := context.Background()
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendKey(buf[:0], feats, "hybrid", 2)
		val, _, err := decide(ctx, s, &s.smsv, core.Hybrid, buf, smsvIn{feats: feats})
		if err != nil || val == nil || val.Candidate.Format != sparse.CSR {
			t.Fatalf("hot path broke: %v %v", val, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state decide path allocates %.1f/op, gate is 2", allocs)
	}
	// The raw key build + cache probe must be allocation-free.
	allocs = testing.AllocsPerRun(200, func() {
		buf = AppendKey(buf[:0], feats, "hybrid", 2)
		if _, ok := s.smsv.cache.Get(buf); !ok {
			t.Fatal("cache lost the warmed entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendKey+Get allocates %.1f/op, want 0", allocs)
	}
}

// TestPairDecideHotPathAllocs holds the shared decide pipeline to the
// allocation budget the dedicated SpGEMM copy had: a warm pair decide
// (key build + cache hit, untraced) cost 0 allocs/op in decidePair at the
// parent commit, and the pair operand bundle is the larger of the two, so
// a by-value In that started escaping would show up here first.
func TestPairDecideHotPathAllocs(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	fa := dataset.Features{M: 60, N: 40, NNZ: 360, Ndig: 2, Dnnz: 6, Mdim: 6, Adim: 6, Vdim: 0.2, Density: 0.15}
	fb := dataset.Features{M: 40, N: 30, NNZ: 200, Ndig: 2, Dnnz: 6, Mdim: 6, Adim: 5, Vdim: 0.2, Density: 0.16}
	s.pair.cache.Put(PairKey(fa, fb, "hybrid", 2), &CachedPairDecision{Verdict: core.Verdict[spgemm.Candidate]{Rung: core.RungMeasured}})
	ctx := context.Background()
	buf := make([]byte, 0, 160)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendPairKey(buf[:0], fa, fb, "hybrid", 2)
		val, outcome, err := decide(ctx, s, &s.pair, core.Hybrid, buf, pairIn{fa: fa, fb: fb})
		if err != nil || val == nil || outcome != "hit" {
			t.Fatalf("hot path broke: %v %q %v", val, outcome, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm pair decide allocates %.1f/op, parent's decidePair allocated 0", allocs)
	}
}

// BenchmarkServeBatch measures the batched steady-state decide path: N
// warmed shape classes keyed and served per op through ScheduleBatch's
// per-item machinery, without HTTP or JSON. The companion HTTP-level number
// lives in the root bench suite.
func BenchmarkServeBatch(b *testing.B) {
	s := NewServer(Config{Policy: core.Hybrid, TopK: 2})
	const n = 16
	featsOf := func(i int) dataset.Features {
		return dataset.Features{M: 60 + 8*i, N: 40 + 4*i, NNZ: int64(360 + 60*i),
			Ndig: 2, Dnnz: 6, Mdim: 6 + i, Adim: 6, Vdim: 0.2, Density: 0.15}
	}
	for i := 0; i < n; i++ {
		key := Key(featsOf(i), "hybrid", 2)
		s.smsv.cache.Do(key, func() (*CachedDecision, error) {
			return &CachedDecision{Verdict: core.Verdict[sparse.Candidate]{
				Candidate: sparse.Candidate{Format: sparse.CSR, Variant: sparse.VariantFused},
				Rung:      core.RungMeasured,
			}}, nil
		})
	}
	ctx := context.Background()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := featsOf(i % n)
		buf = AppendKey(buf[:0], f, "hybrid", 2)
		if _, _, err := decide(ctx, s, &s.smsv, core.Hybrid, buf, smsvIn{feats: f}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatchHTTP is the endpoint-level number DESIGN §11 quotes:
// one warmed 8-item inline batch through the full HTTP/JSON stack.
func BenchmarkServeBatchHTTP(b *testing.B) {
	s := NewServer(Config{Policy: core.Hybrid, TopK: 2})
	h := s.Handler()
	items := make([]ScheduleRequest, 8)
	for i := range items {
		items[i] = ScheduleRequest{Data: makeLIBSVM(40+4*i, 30, 5, int64(i+1))}
	}
	body, err := json.Marshal(BatchScheduleRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	warm := benchPost(b, h, body)
	for i, d := range warm.Decisions {
		if d.Error != "" {
			b.Fatalf("warmup item %d: %s", i, d.Error)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, h, body)
	}
}

func benchPost(b *testing.B, h http.Handler, body []byte) BatchScheduleResponse {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule/batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp BatchScheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	return resp
}

// hitBodies are the three warmed requests the serving benchmarks share — a
// 1 KB /v1/schedule body, a 16-item batch of it and an SpGEMM pair — keyed
// by the sub-benchmark name, with the path each goes to.
func hitBodies(tb testing.TB) map[string][2]string {
	marshal := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return string(raw)
	}
	rows := makeLIBSVM(10, 40, 6, 1)
	batch := BatchScheduleRequest{Items: make([]ScheduleRequest, 16)}
	for i := range batch.Items {
		batch.Items[i].Data = rows
	}
	return map[string][2]string{
		"schedule": {"/v1/schedule", marshal(ScheduleRequest{Data: rows})},
		"batch16":  {"/v1/schedule/batch", marshal(batch)},
		"spgemm":   {"/v1/schedule/spgemm", marshal(SpGEMMRequest{A: rows + "+1 40:1\n", B: makeLIBSVM(39, 30, 5, 3) + "+1 30:1\n"})},
	}
}

// BenchmarkScheduleHitHTTP is a warmed request end to end through
// Handler().ServeHTTP — body read, envelope, parse, key, cache hit, trace,
// reply — per endpoint: with BenchmarkServeBatchHTTP the source of
// EXPERIMENTS.md's "What a cache hit still allocates" (run with -benchmem).
// The floor sub-benchmarks are what that costs before the server does
// anything: httptest's request and recorder and the route wrapper around a
// handler that reads the same body and writes the same reply.
func BenchmarkScheduleHitHTTP(b *testing.B) {
	s := NewServer(Config{Policy: core.Hybrid, TopK: 2, TrialRows: 8, Repeats: 1})
	h := s.Handler()
	for _, name := range []string{"schedule", "batch16", "spgemm"} {
		req := hitBodies(b)[name]
		path, body := req[0], req[1]
		var reply []byte
		bench := func(h http.Handler) func(b *testing.B) {
			return func(b *testing.B) {
				rd := strings.NewReader(body)
				run := func() {
					rd.Reset(body)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, rd))
					if w.Code != http.StatusOK {
						b.Fatalf("status %d: %s", w.Code, w.Body)
					}
					reply = w.Body.Bytes()
				}
				// First contact measures; the rest fill the trace ring, so the
				// timed requests record into recycled storage.
				for i := 0; i < telemetry.DefaultTraceCapacity+8; i++ {
					run()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			}
		}
		b.Run(name, bench(h))
		b.Run(name+"/floor", bench(s.route("schedule", http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(reply)
		})))
	}
}

// BenchmarkReplyEncode is the reply half alone: the three hit replies of
// BenchmarkScheduleHitHTTP appended into a reused buffer, the measured
// evidence and the trace lines spliced as the handlers splice them.
func BenchmarkReplyEncode(b *testing.B) {
	s := NewServer(Config{Policy: core.Hybrid, TopK: 2, TrialRows: 8, Repeats: 1})
	h := s.Handler()
	replies := map[string][]byte{}
	for name, req := range hitBodies(b) {
		for i := 0; i < 2; i++ { // the second reply is the hit
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req[0], strings.NewReader(req[1])))
			if w.Code != http.StatusOK {
				b.Fatalf("%s: status %d: %s", name, w.Code, w.Body)
			}
			replies[name] = w.Body.Bytes()
		}
	}
	var single ScheduleResponse
	var batch BatchScheduleResponse
	var pair SpGEMMResponse
	for name, v := range map[string]any{"schedule": &single, "batch16": &batch, "spgemm": &pair} {
		if err := json.Unmarshal(replies[name], v); err != nil {
			b.Fatal(err)
		}
	}
	pre := preRender(single.Decision.Measured, single.Decision.Trace)
	pairPre := preRender(pair.Decision.Measured, pair.Decision.Trace)
	slotPre := make([]rendered, len(batch.Decisions))
	for i, slot := range batch.Decisions {
		slotPre[i] = preRender(slot.Decision.Measured, nil)
	}
	var w wire
	for _, bc := range []struct {
		name   string
		encode func()
	}{
		{"schedule", func() { w.scheduleReply(&single.Decision, pre) }},
		{"batch16", func() {
			w.batchOpen()
			for i, slot := range batch.Decisions {
				w.batchItem(i, slot.Decision, slotPre[i], "")
			}
			w.batchClose(batch.TraceID)
		}},
		{"spgemm", func() { w.spgemmReply(&pair.Decision, pairPre) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.encode()
			if !bytes.Equal(w.b, replies[bc.name]) {
				b.Fatalf("encoded %s, the handler sent %s", w.b, replies[bc.name])
			}
			b.SetBytes(int64(len(w.b)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.encode()
			}
		})
	}
}
