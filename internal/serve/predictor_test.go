package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

func decodeJSON(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}

// fixedPredictor is a canned core.FormatPredictor for serving tests.
type fixedPredictor struct {
	format sparse.Format
	conf   float64
	ok     bool
}

func (p fixedPredictor) PredictCandidate(dataset.Features) (sparse.Candidate, float64, bool) {
	return sparse.BaseCandidate(p.format), p.conf, p.ok
}

func TestSchedulePredictPolicy(t *testing.T) {
	s := newTestServer(t, Config{
		Policy:    core.PolicyPredict,
		Predictor: fixedPredictor{format: sparse.CSR, conf: 0.92, ok: true},
	})
	h := s.Handler()
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(200, 80, 10, 1)})
	d := decodeSchedule(t, w).Decision
	if d.Source != "predictor" || d.Chosen != "CSR" {
		t.Fatalf("decision %+v, want predictor-sourced CSR", d)
	}
	if d.Confidence != 0.92 {
		t.Fatalf("confidence %g", d.Confidence)
	}
	if len(d.Measured) != 0 || s.Measurements() != 0 {
		t.Fatal("confident prediction must not measure")
	}
	if s.smsv.predictorHits.Load() != 1 || s.smsv.predictorFallbacks.Load() != 0 {
		t.Fatalf("hits %d fallbacks %d", s.smsv.predictorHits.Load(), s.smsv.predictorFallbacks.Load())
	}
	if !strings.Contains(strings.Join(d.Trace, "\n"), "predictor: answered CSR with confidence 0.92") {
		t.Fatalf("trace missing predictor attribution: %v", d.Trace)
	}
	// Same shape again: exact-key cache hit, predictor not consulted.
	w = post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(200, 80, 10, 1)})
	if d := decodeSchedule(t, w).Decision; d.Source != "cache" || s.smsv.predictorHits.Load() != 1 {
		t.Fatalf("second request source %q, hits %d", d.Source, s.smsv.predictorHits.Load())
	}

	// /metrics must export the predictor counters.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"layoutd_predictor_loaded 1",
		"layoutd_predictor_hits_total 1",
		"layoutd_predictor_fallbacks_total 0",
		"layoutd_predictor_confidence_milli_sum 920",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSchedulePredictLowConfidenceFallsBack(t *testing.T) {
	s := newTestServer(t, Config{
		Predictor: fixedPredictor{format: sparse.DEN, conf: 0.3, ok: true},
	})
	h := s.Handler()
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(150, 60, 8, 2), Policy: "predict"})
	d := decodeSchedule(t, w).Decision
	if d.Source != "measured" || len(d.Measured) == 0 {
		t.Fatalf("low-confidence decision %+v, want measured", d)
	}
	if d.Confidence != 0.3 {
		t.Fatalf("fallback must report the predictor confidence, got %g", d.Confidence)
	}
	if s.Measurements() != 1 || s.smsv.predictorHits.Load() != 0 || s.smsv.predictorFallbacks.Load() != 1 {
		t.Fatalf("measurements %d hits %d fallbacks %d",
			s.Measurements(), s.smsv.predictorHits.Load(), s.smsv.predictorFallbacks.Load())
	}
	if !strings.Contains(strings.Join(d.Trace, "\n"), "predictor: confidence 0.30 below threshold") {
		t.Fatalf("trace missing fallback attribution: %v", d.Trace)
	}
	// The fallback measurement feeds the flywheel.
	if s.cfg.History.Len() != 1 {
		t.Fatalf("history len %d, want the fallback recorded", s.cfg.History.Len())
	}
}

func TestSchedulePredictWithoutPredictor(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s.Handler(), "/v1/schedule", ScheduleRequest{Data: "+1 1:1\n", Policy: "predict"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "-predictor") {
		t.Fatalf("error should point at the -predictor flag: %s", w.Body)
	}
}

func TestPredictFormatEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		Predictor:     fixedPredictor{format: sparse.ELL, conf: 0.75, ok: true},
		MinConfidence: 0.6,
	})
	h := s.Handler()

	var resp PredictFormatResponse
	w := post(t, h, "/v1/predict-format", PredictFormatRequest{
		Profile: &FeaturesJSON{M: 1000, N: 500, NNZ: 5000, Ndig: 700, Dnnz: 7,
			Mdim: 10, Adim: 5, Vdim: 2, Density: 0.01},
	})
	decodeJSON(t, w, &resp)
	if resp.Format != "ELL" || resp.Confidence != 0.75 || !resp.Confident {
		t.Fatalf("profile inference %+v", resp)
	}

	// Inline data: features are extracted server-side and echoed back.
	w = post(t, h, "/v1/predict-format", PredictFormatRequest{Data: makeLIBSVM(120, 50, 6, 4)})
	decodeJSON(t, w, &resp)
	if resp.Format != "ELL" || resp.Features.M != 120 {
		t.Fatalf("data inference %+v", resp)
	}

	// Below the threshold the answer is flagged as not confident.
	low := newTestServer(t, Config{Predictor: fixedPredictor{format: sparse.COO, conf: 0.4, ok: true}})
	w = post(t, low.Handler(), "/v1/predict-format", PredictFormatRequest{Data: makeLIBSVM(80, 40, 5, 1)})
	decodeJSON(t, w, &resp)
	if resp.Confident {
		t.Fatalf("confidence 0.4 reported as confident: %+v", resp)
	}

	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither profile nor data", PredictFormatRequest{}, http.StatusBadRequest},
		{"both", PredictFormatRequest{Profile: &FeaturesJSON{M: 1, N: 1}, Data: "+1 1:1\n"}, http.StatusBadRequest},
		{"empty profile", PredictFormatRequest{Profile: &FeaturesJSON{}}, http.StatusBadRequest},
		{"malformed libsvm", PredictFormatRequest{Data: "+1 nonsense\n"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := post(t, h, "/v1/predict-format", tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}
}

func TestPredictFormatWithoutPredictor(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s.Handler(), "/v1/predict-format", PredictFormatRequest{Data: "+1 1:1\n"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	// An empty model (ok=false) is also a 503, not a bogus answer.
	s = newTestServer(t, Config{Predictor: fixedPredictor{ok: false}})
	w = post(t, s.Handler(), "/v1/predict-format", PredictFormatRequest{Data: "+1 1:1\n"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty-model status %d, want 503: %s", w.Code, w.Body)
	}
}
