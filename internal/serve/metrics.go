package serve

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// requestBuckets are the request-latency histogram upper bounds in seconds:
// 50µs to ~1.6s log₂-spaced (+Inf implicit). Cache-hit schedule requests
// land well under a millisecond, so the old 1ms/10ms/100ms/1s bounds put
// nearly all traffic in the first bucket and left histogram_quantile with
// nothing to interpolate — too coarse for loadgen's client/server
// percentile cross-check.
var requestBuckets = telemetry.ExpBuckets(5e-5, 2, 16)

// decisionBuckets span 100µs to ~1.6s log₂-spaced: fresh schedule decisions
// range from near-instant history/predictor answers to multi-candidate
// empirical measurement.
var decisionBuckets = telemetry.ExpBuckets(1e-4, 2, 15)

// endpointMetrics holds one route's pre-resolved metric handles, so the
// per-request path is a few atomic ops with no registry lock.
type endpointMetrics struct {
	requests *telemetry.Counter
	latency  *telemetry.Histogram
}

// serverMetrics is the server's telemetry.Registry plus the handle caches
// the request path needs. Everything /metrics exposes — request counters,
// latency histograms, cache/breaker/predictor series, kernel and fault
// collectors — registers here, and handleMetrics is one WriteText call.
type serverMetrics struct {
	reg      *telemetry.Registry
	start    time.Time
	decision *telemetry.Histogram

	mu        sync.RWMutex
	endpoints map[string]*endpointMetrics
}

func newServerMetrics() *serverMetrics {
	m := &serverMetrics{
		reg:       telemetry.NewRegistry(),
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics),
	}
	m.decision = m.reg.Histogram("layoutd_schedule_decision_duration_seconds",
		"Wall time of freshly computed schedule decisions (cache misses that ran the scheduler).",
		decisionBuckets)
	m.reg.GaugeFunc("layoutd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// endpoint returns (registering on first use) the handles for one route.
// Handler() pre-registers every route so zero-valued series appear in the
// first scrape.
func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	m.mu.RLock()
	em := m.endpoints[name]
	m.mu.RUnlock()
	if em != nil {
		return em
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if em = m.endpoints[name]; em == nil {
		label := telemetry.L("endpoint", name)
		em = &endpointMetrics{
			requests: m.reg.Counter("layoutd_requests_total",
				"HTTP requests handled, by endpoint.", label),
			latency: m.reg.Histogram("layoutd_request_duration_seconds",
				"Handler latency in seconds, by endpoint.", requestBuckets, label),
		}
		m.endpoints[name] = em
	}
	return em
}

// observe records one completed request. A non-empty traceID rides the
// latency bucket as an OpenMetrics exemplar, so a blown percentile links
// straight to a retrievable trace.
func (m *serverMetrics) observe(name string, d time.Duration, traceID, node string) {
	em := m.endpoint(name)
	em.requests.Inc()
	em.latency.ObserveExemplar(d.Seconds(), traceID, node)
}
