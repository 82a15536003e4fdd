package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sparse"
	"repro/internal/svm"
)

// makeLIBSVM renders a seeded random sparse dataset as LIBSVM text. The
// same arguments always produce the same text, so identical requests map to
// one cache key.
func makeLIBSVM(rows, cols, nnzPerRow int, seed int64) string {
	return makeLIBSVMDigits(rows, cols, nnzPerRow, seed, -1)
}

// makeLIBSVMDigits is makeLIBSVM with each value spelled to digits
// significant digits ('g' format; -1 is the shortest exact spelling, %g).
// The pattern of nonzeros does not depend on digits.
func makeLIBSVMDigits(rows, cols, nnzPerRow int, seed int64, digits int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		sb.WriteString("+1")
		step := cols / nnzPerRow
		if step < 1 {
			step = 1
		}
		col := 1 + rng.Intn(step)
		for k := 0; k < nnzPerRow && col <= cols; k++ {
			fmt.Fprintf(&sb, " %d:%s", col, strconv.FormatFloat(0.5+rng.Float64(), 'g', digits, 64))
			col += 1 + rng.Intn(step)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Exec == nil {
		ex := exec.New(2, exec.Static)
		t.Cleanup(ex.Close)
		cfg.Exec = ex
	}
	return NewServer(cfg)
}

// post sends a JSON body through the handler and returns the recorder.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeSchedule(t *testing.T, w *httptest.ResponseRecorder) ScheduleResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestScheduleProfileOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w := post(t, h, "/v1/schedule", ScheduleRequest{
		Profile: &FeaturesJSON{M: 1000, N: 500, NNZ: 5000, Ndig: 700, Dnnz: 7,
			Mdim: 10, Adim: 5, Vdim: 2, Density: 0.01},
	})
	resp := decodeSchedule(t, w)
	d := resp.Decision
	if d.Source != "model" || d.Policy != "rule-based" {
		t.Fatalf("decision %+v", d)
	}
	if len(d.Estimates) != len(sparse.BasicFormats) {
		t.Fatalf("%d estimates", len(d.Estimates))
	}
	if d.Chosen != d.Estimates[0].Format {
		t.Fatalf("chosen %s but cheapest estimate %s", d.Chosen, d.Estimates[0].Format)
	}
	if len(d.Measured) != 0 {
		t.Fatal("profile-only request measured something")
	}
}

func TestScheduleInlineData(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid})
	h := s.Handler()
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(300, 120, 12, 1)})
	d := decodeSchedule(t, w).Decision
	if d.Source != "measured" {
		t.Fatalf("source %q, want measured", d.Source)
	}
	if len(d.Measured) == 0 {
		t.Fatal("hybrid decision has no measurements")
	}
	if d.Features.M != 300 {
		t.Fatalf("features M=%d", d.Features.M)
	}
	if s.Measurements() != 1 {
		t.Fatalf("measurements = %d", s.Measurements())
	}
	// Same data again: exact-key cache hit, no new measurement.
	w = post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(300, 120, 12, 1)})
	d2 := decodeSchedule(t, w).Decision
	if d2.Source != "cache" {
		t.Fatalf("second request source %q, want cache", d2.Source)
	}
	if d2.Chosen != d.Chosen {
		t.Fatalf("cache changed the decision: %s vs %s", d2.Chosen, d.Chosen)
	}
	if s.Measurements() != 1 {
		t.Fatalf("cache hit re-measured: %d", s.Measurements())
	}
	if hits, misses := s.smsv.cache.hits.Load(), s.smsv.cache.misses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits %d misses %d, want 1 and 1", hits, misses)
	}
}

// TestScheduleSingleflight is the acceptance check: N identical concurrent
// requests trigger exactly one measurement; the rest are deduplicated
// in-flight or served from the cache.
func TestScheduleSingleflight(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TrialRows: 6, Repeats: 8})
	h := s.Handler()
	data := makeLIBSVM(500, 200, 20, 7)
	const n = 8
	codes := make([]int, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			codes[i] = post(t, h, "/v1/schedule", ScheduleRequest{Data: data}).Code
		}(i)
	}
	start.Done()
	done.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := s.Measurements(); got != 1 {
		t.Fatalf("measurements = %d, want exactly 1", got)
	}
	misses, dedups := s.smsv.cache.misses.Load(), s.smsv.cache.dedups.Load()
	if hits := s.smsv.cache.hits.Load(); misses != 1 || hits+dedups != n-1 {
		t.Fatalf("cache %d misses, %d hits, %d dedups; want 1 miss and %d hits+dedups", misses, hits, dedups, n-1)
	}
	// /metrics must report the cache traffic.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	body := w.Body.String()
	if !strings.Contains(body, "layoutd_measurements_total 1") {
		t.Fatalf("metrics missing measurement count:\n%s", body)
	}
	// Index past the # HELP/# TYPE lines to the sample itself.
	var hits int64
	idx := strings.Index(body, "\nlayoutd_cache_hits_total ")
	if idx < 0 {
		t.Fatalf("metrics missing cache hits:\n%s", body)
	}
	if _, err := fmt.Sscanf(body[idx+1:], "layoutd_cache_hits_total %d", &hits); err != nil {
		t.Fatalf("metrics missing cache hits:\n%s", body)
	}
	if hits+dedups <= 0 {
		t.Fatalf("no cache reuse recorded:\n%s", body)
	}
}

func TestScheduleOverload(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, MaxInflight: 1})
	// Occupy the only measurement slot, as a long-running measurement
	// would, then send a cache-missing request.
	s.sem <- struct{}{}
	w := post(t, s.Handler(), "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(50, 30, 5, 3)})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-s.sem
	// With the slot free the same request succeeds: overload errors were
	// not cached.
	w = post(t, s.Handler(), "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(50, 30, 5, 3)})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d after slot freed: %s", w.Code, w.Body)
	}
}

func TestScheduleBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name string
		body any
		want int
	}{
		{"neither profile nor data", ScheduleRequest{}, http.StatusBadRequest},
		{"both profile and data", ScheduleRequest{Profile: &FeaturesJSON{M: 1, N: 1}, Data: "+1 1:1\n"}, http.StatusBadRequest},
		{"unknown policy", ScheduleRequest{Data: "+1 1:1\n", Policy: "oracle"}, http.StatusBadRequest},
		{"empty profile", ScheduleRequest{Profile: &FeaturesJSON{}}, http.StatusBadRequest},
		{"malformed libsvm", ScheduleRequest{Data: "+1 nonsense\n"}, http.StatusBadRequest},
		{"blank data", ScheduleRequest{Data: "\n\n"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := post(t, h, "/v1/schedule", tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body)
		}
	}
	// Empty matrix maps specifically onto core.ErrEmptyMatrix's message.
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: "\n"})
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error != core.ErrEmptyMatrix.Error() {
		t.Fatalf("empty-matrix error %q", er.Error)
	}
}

func TestOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{MaxBody: 128})
	w := post(t, s.Handler(), "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(100, 50, 10, 1)})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", w.Code, w.Body)
	}
}

func TestScheduleCancelledMidMeasurement(t *testing.T) {
	// A big matrix with many timed repetitions guarantees the measurement
	// phase is still running when the client gives up.
	s := newTestServer(t, Config{Policy: core.Empirical, TrialRows: 40, Repeats: 400})
	h := s.Handler()
	raw, _ := json.Marshal(ScheduleRequest{Data: makeLIBSVM(3000, 800, 60, 5)})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw)).WithContext(ctx)
	w := httptest.NewRecorder()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	if s.Measurements() != 0 {
		t.Fatal("cancelled measurement was counted as complete")
	}
	if n := cached(s.smsv.cache); n != 0 {
		t.Fatalf("cancelled decision was cached: %d entries", n)
	}
	// The slot must have been released and the server still serves.
	w2 := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(40, 20, 4, 2)})
	if w2.Code != http.StatusOK {
		t.Fatalf("server wedged after cancellation: %d %s", w2.Code, w2.Body)
	}
}

func TestScheduleHistoryNearMiss(t *testing.T) {
	hist := &core.History{}
	s := newTestServer(t, Config{Policy: core.Empirical, History: hist})
	h := s.Handler()
	// First dataset measures and records into the history.
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(400, 150, 15, 1)})
	if d := decodeSchedule(t, w).Decision; d.Source != "measured" {
		t.Fatalf("first source %q", d.Source)
	}
	if hist.Len() != 1 {
		t.Fatalf("history len %d", hist.Len())
	}
	// A reseeded clone of the same shape misses the exact-key cache but
	// lands within the history radius: reused without measuring.
	w = post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(400, 150, 15, 2)})
	d := decodeSchedule(t, w).Decision
	if s.Measurements() != 1 {
		t.Fatalf("near-miss re-measured: %d", s.Measurements())
	}
	if d.Source != "history" && d.Source != "cache" {
		t.Fatalf("second source %q, want history (or cache on key collision)", d.Source)
	}
}

func TestPredict(t *testing.T) {
	// A hand-built linear model: f(x) = x[0] - x[1] (1-based features 1,2).
	model := &svm.Model{
		Kernel: svm.KernelParams{Type: svm.Linear},
		SVs: []sparse.Vector{
			{Index: []int32{0}, Value: []float64{1}, Dim: 2},
			{Index: []int32{1}, Value: []float64{1}, Dim: 2},
		},
		Coef: []float64{1, -1},
	}
	s := newTestServer(t, Config{Model: model})
	h := s.Handler()
	w := post(t, h, "/v1/predict", PredictRequest{Rows: []string{
		"1:2 2:1",    // f = 1 → +1
		"1:1 2:3",    // f = -2 → -1
		"+1 1:5 2:1", // labeled row accepted too, f = 4 → +1
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -1, 1}
	if len(resp.Predictions) != len(want) {
		t.Fatalf("%d predictions", len(resp.Predictions))
	}
	for i := range want {
		if resp.Predictions[i] != want[i] {
			t.Fatalf("prediction[%d] = %v (decision %v), want %v",
				i, resp.Predictions[i], resp.Decisions[i], want[i])
		}
	}
	if resp.SVs != 2 {
		t.Fatalf("svs = %d", resp.SVs)
	}

	for name, body := range map[string]PredictRequest{
		"no rows":   {},
		"bad row":   {Rows: []string{"1:abc"}},
		"blank row": {Rows: []string{"  "}},
	} {
		if w := post(t, h, "/v1/predict", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
	}
}

func TestPredictWithoutModel(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s.Handler(), "/v1/predict", PredictRequest{Rows: []string{"1:1"}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
}

func TestHealthzAndMethodFiltering(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
	// Wrong method on every route.
	for _, path := range []string{"/v1/schedule", "/v1/predict"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d", path, w.Code)
		}
	}
	req = httptest.NewRequest(http.MethodPost, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d", w.Code)
	}
}

func TestDrainRejectsNewRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	if w := post(t, h, "/v1/schedule", ScheduleRequest{Data: "+1 1:1\n"}); w.Code != http.StatusOK {
		t.Fatalf("pre-drain request failed: %d", w.Code)
	}
	s.Drain()
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: "+1 1:1\n"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", w.Code)
	}
}

// TestConcurrentMixedTraffic drives every endpoint from concurrent clients;
// under -race it is the acceptance check that the serving core is
// data-race-free.
func TestConcurrentMixedTraffic(t *testing.T) {
	model := &svm.Model{
		Kernel: svm.KernelParams{Type: svm.Linear},
		SVs:    []sparse.Vector{{Index: []int32{0}, Value: []float64{1}, Dim: 1}},
		Coef:   []float64{1},
	}
	stats := &exec.Stats{}
	s := newTestServer(t, Config{
		Policy: core.Hybrid, Model: model, Stats: stats,
		MaxInflight: 2, CacheShards: 4, CacheCapacity: 8,
	})
	h := s.Handler()
	const clients = 12
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (c + i) % 4 {
				case 0:
					// A handful of shape classes shared across clients.
					data := makeLIBSVM(60+20*((c+i)%3), 40, 6, int64((c+i)%3))
					w := post(t, h, "/v1/schedule", ScheduleRequest{Data: data})
					if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
						t.Errorf("schedule: status %d: %s", w.Code, w.Body)
					}
				case 1:
					w := post(t, h, "/v1/predict", PredictRequest{Rows: []string{"1:1"}})
					if w.Code != http.StatusOK {
						t.Errorf("predict: status %d", w.Code)
					}
				case 2:
					req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						t.Errorf("metrics: status %d", w.Code)
					}
				default:
					req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						t.Errorf("healthz: status %d", w.Code)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	s.Drain()
	if n := s.smsv.cache.Inflight(); n != 0 {
		t.Fatalf("inflight %d after drain", n)
	}
	if s.smsv.cache.misses.Load() == 0 {
		t.Fatal("no cache misses recorded under load")
	}
}

// TestMetricsPinnedByValue pins the server families no other test reads by
// value: the kernel counters of the attached exec.Stats, the exec pool's
// occupancy, the trace ring's evictions, the request and decision latency
// histograms and the uptime gauge.
func TestMetricsPinnedByValue(t *testing.T) {
	ex := exec.New(2, exec.Static)
	defer ex.Close()
	stats := &exec.Stats{}
	s := newTestServer(t, Config{Policy: core.Hybrid, Exec: ex, Stats: stats, TraceCapacity: 1})
	h := s.Handler()
	if d := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(60, 40, 5, 1)})).Decision; d.Source != "measured" {
		t.Fatalf("source %q, want measured", d.Source)
	}
	decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Profile: &FeaturesJSON{M: 100, N: 80, NNZ: 500, Density: 0.0625}}))
	body := getMetrics(t, h)
	snap := stats.Snapshot()
	if len(snap) == 0 {
		t.Fatal("a measured decision ran no kernel")
	}
	want := []string{
		"layoutd_pool_workers 2",
		"layoutd_pool_busy 0",
		// One trace per request in a ring of one: the second evicted the first.
		"layoutd_trace_store_evicted_total 1",
		`layoutd_request_duration_seconds_count{endpoint="schedule"} 2`,
		// Only the measured request ran a scheduler.
		"layoutd_schedule_decision_duration_seconds_count 1",
	}
	for _, ks := range snap {
		want = append(want,
			fmt.Sprintf(`layoutd_kernel_calls{kind="%s"} %d`, ks.Kind, ks.Calls),
			fmt.Sprintf(`layoutd_kernel_elements{kind="%s"} %d`, ks.Kind, ks.Elements),
			fmt.Sprintf(`layoutd_kernel_nanos{kind="%s"} %d`, ks.Kind, int64(ks.Time)))
	}
	for _, w := range want {
		if !strings.Contains(body, w+"\n") {
			t.Errorf("/metrics missing %q", w)
		}
	}
	var uptime float64
	if _, rest, _ := strings.Cut(body, "\nlayoutd_uptime_seconds "); rest == "" {
		t.Error("/metrics has no uptime")
	} else if _, err := fmt.Sscanf(rest, "%g", &uptime); err != nil || uptime <= 0 {
		t.Errorf("uptime %q", rest[:strings.IndexByte(rest, '\n')])
	}
}
