package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/fault"
)

// arm parses and enables a failpoint spec for the duration of the test.
func arm(t *testing.T, spec string) *fault.Registry {
	t.Helper()
	r, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(r)
	t.Cleanup(func() { fault.Enable(nil) })
	return r
}

func getMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	return w.Body.String()
}

// TestChaosServeDegradesUnderMeasureFaults is the headline acceptance
// scenario: with measurement failing 100% of the time, layoutd must keep
// answering schedule requests — degraded, from the cost model — with zero
// 5xx responses, an open breaker, and the failures visible in /metrics.
func TestChaosServeDegradesUnderMeasureFaults(t *testing.T) {
	reg := arm(t, "core.measure.err=1")
	s := newTestServer(t, Config{Policy: core.Hybrid, BreakerThreshold: 2})
	h := s.Handler()

	// Distinct shapes so every request is a fresh cache miss: the first two
	// burn real (failing) measurement attempts and trip the breaker, the
	// rest short-circuit on the open breaker.
	rows := []int{60, 100, 160, 260, 420, 680}
	for i, m := range rows {
		w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(m, 40, 8, int64(i+1))})
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (want 200, never 5xx): %s", i, w.Code, w.Body)
		}
		d := decodeSchedule(t, w).Decision
		if !d.Degraded {
			t.Fatalf("request %d: decision not marked degraded: %+v", i, d)
		}
		if d.Source != "model" {
			t.Fatalf("request %d: degraded source %q, want model (no history, no predictor)", i, d.Source)
		}
		if d.Chosen == "" || len(d.Estimates) == 0 {
			t.Fatalf("request %d: degraded decision is not a usable answer: %+v", i, d)
		}
	}

	if got := s.breaker.State(); got != breaker.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	if s.breaker.Opens() != 1 {
		t.Fatalf("breaker opened %d times, want 1", s.breaker.Opens())
	}
	if got := s.smsv.degraded.Load(); got != int64(len(rows)) {
		t.Fatalf("degraded counter = %d, want %d", got, len(rows))
	}

	metrics := getMetrics(t, h)
	for _, want := range []string{
		"layoutd_degraded_total 6",
		"layoutd_breaker_opens_total 1",
		"layoutd_breaker_state 1",
		"layoutd_faults_enabled 1",
		fmt.Sprintf(`layoutd_fault_injected_total{point="core.measure.err"} %d`, reg.Snapshot()[0].Fired),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestChaosDegradedNotCachedAsAuthoritative is the singleflight+breaker
// regression test: a degraded decision must only be cached for the short
// degraded TTL, and once the faults clear and the breaker cooldown lapses,
// the same shape class must be re-measured into an authoritative entry.
func TestChaosDegradedNotCachedAsAuthoritative(t *testing.T) {
	arm(t, "core.measure.err=1")
	clk := newFakeClock()
	s := newTestServer(t, Config{
		Policy:           core.Hybrid,
		BreakerThreshold: 1,
		BreakerCooldown:  5 * time.Second,
		DegradedTTL:      2 * time.Second,
	})
	s.smsv.cache.now = clk.Now
	s.breaker.Now = clk.Now
	h := s.Handler()
	data := makeLIBSVM(200, 80, 10, 7)

	// 1: measurement fails, breaker trips, degraded answer cached with TTL.
	d := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: data})).Decision
	if !d.Degraded || d.Source != "model" {
		t.Fatalf("first decision not degraded-from-model: %+v", d)
	}

	// 2: within the TTL the degraded entry serves as a cache hit — still
	// flagged degraded, and no new degrade or measurement happens.
	d = decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: data})).Decision
	if !d.Degraded || d.Source != "cache" {
		t.Fatalf("cached degraded decision = %+v, want degraded cache hit", d)
	}
	if got := s.smsv.degraded.Load(); got != 1 {
		t.Fatalf("degraded counter = %d after cache hit, want 1", got)
	}

	// 3: the faults clear and both the TTL and the breaker cooldown lapse;
	// the expired degraded entry must be re-measured into an authoritative
	// decision by the half-open probe.
	fault.Enable(nil)
	clk.Advance(6 * time.Second)
	d = decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: data})).Decision
	if d.Degraded {
		t.Fatalf("post-recovery decision still degraded: %+v", d)
	}
	if d.Source != "measured" || len(d.Measured) == 0 {
		t.Fatalf("post-recovery decision %+v, want fresh measurement", d)
	}
	if got := s.smsv.cache.expired.Load(); got != 1 {
		t.Fatalf("cache expired counter = %d, want 1", got)
	}
	if got := s.breaker.State(); got != breaker.Closed {
		t.Fatalf("breaker = %v after successful probe, want closed", got)
	}

	// 4: the re-measured entry is authoritative — it survives far past the
	// degraded TTL.
	clk.Advance(time.Hour)
	d = decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: data})).Decision
	if d.Source != "cache" || d.Degraded {
		t.Fatalf("authoritative entry did not persist: %+v", d)
	}
}

// TestChaosRequestFaultIsContained: an injected request-level fault turns
// into a clean 503 for that one request; the next request is unaffected.
func TestChaosRequestFaultIsContained(t *testing.T) {
	arm(t, "serve.request.err=1:1")
	s := newTestServer(t, Config{})
	h := s.Handler()
	profile := &FeaturesJSON{M: 100, N: 50, NNZ: 500, Density: 0.1}

	w := post(t, h, "/v1/schedule", ScheduleRequest{Profile: profile})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted request status %d, want 503", w.Code)
	}
	w = post(t, h, "/v1/schedule", ScheduleRequest{Profile: profile})
	if w.Code != http.StatusOK {
		t.Fatalf("request after fault drained: status %d: %s", w.Code, w.Body)
	}
}

// TestChaosHandlerPanicRecovered: a panic deep in the serving path (here the
// decision cache) must come back as a JSON 500 — the daemon survives and
// keeps serving.
func TestChaosHandlerPanicRecovered(t *testing.T) {
	arm(t, "serve.cache.panic=1:1")
	s := newTestServer(t, Config{Policy: core.Hybrid})
	h := s.Handler()
	data := makeLIBSVM(100, 40, 8, 3)

	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: data})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request status %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "internal panic") {
		t.Fatalf("500 body does not report the panic: %s", w.Body)
	}
	w = post(t, h, "/v1/schedule", ScheduleRequest{Data: data})
	if w.Code != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: status %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(getMetrics(t, h), "layoutd_handler_panics_total 1") {
		t.Fatal("handler panic not counted in /metrics")
	}
}

// TestChaosOverloadDoesNotConsumeProbe: admission overload while the breaker
// is half-open must not burn the probe slot — the next request can still
// probe and close the breaker.
func TestChaosOverloadDoesNotConsumeProbe(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, Config{Policy: core.Hybrid, BreakerThreshold: 1, BreakerCooldown: time.Second, MaxInflight: 1})
	s.breaker.Now = clk.Now
	s.smsv.cache.now = clk.Now
	h := s.Handler()

	func() {
		arm(t, "core.measure.err=1")
		post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(100, 40, 8, 1)})
		fault.Enable(nil)
	}()
	if got := s.breaker.State(); got != breaker.Open {
		t.Fatalf("breaker = %v, want open", got)
	}
	clk.Advance(2 * time.Second)

	// Fill the only admission slot, then issue a fresh-shape request: its
	// half-open probe is cancelled by overload, not failed.
	s.sem <- struct{}{}
	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(160, 40, 8, 2)})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request status %d, want 429", w.Code)
	}
	<-s.sem
	if got := s.breaker.Opens(); got != 1 {
		t.Fatalf("overload moved the breaker: opens = %d, want 1", got)
	}

	d := decodeSchedule(t, post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(160, 40, 8, 2)})).Decision
	if d.Degraded || d.Source != "measured" {
		t.Fatalf("probe after overload = %+v, want fresh measurement", d)
	}
	if got := s.breaker.State(); got != breaker.Closed {
		t.Fatalf("breaker = %v, want closed", got)
	}
}
