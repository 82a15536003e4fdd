package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefDurationBuckets are the default latency bucket upper bounds, in
// seconds: log-spaced powers of two from 1µs to ~33.6s, so nanosecond-scale
// kernel reps and multi-second measurement phases land in distinct buckets
// without configuration. 26 buckets keep one histogram series under 30
// exposition lines.
var DefDurationBuckets = ExpBuckets(1e-6, 2, 26)

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and multiplying by factor: the log-bucketed shape latency histograms want.
// It panics on a non-positive start, a factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free: one
// binary search over the bounds, an atomic add and a CAS on the sum, so it
// can sit on the per-request and per-kernel-measurement paths. Bucket counts
// are stored per-bucket (not cumulative) and accumulated at exposition time,
// where the Prometheus `le` semantics require cumulative counts.
type Histogram struct {
	bounds    []float64      // ascending upper bounds; +Inf implicit
	counts    []atomic.Int64 // len(bounds)+1, last is +Inf
	sumBits   atomic.Uint64  // IEEE-754 bits of the observation sum
	labels    []Label
	exemplars []exemplarSlot // len(bounds)+1, last observation per bucket
}

// exemplarSlot is one bucket's last traced observation, kept as its parts so
// that recording one allocates nothing; the exposition builds the Exemplar.
// An observer never waits for the slot: one that finds it being written or
// read skips it, and the observation it lost to is as recent as its own.
type exemplarSlot struct {
	mu      sync.Mutex
	set     bool
	value   float64
	traceID string
	node    string
}

func (s *exemplarSlot) store(v float64, traceID, node string) {
	if s.mu.TryLock() {
		s.set, s.value, s.traceID, s.node = true, v, traceID, node
		s.mu.Unlock()
	}
}

func (s *exemplarSlot) load() *Exemplar {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.set {
		return nil
	}
	labels := []Label{{Key: "trace_id", Value: s.traceID}}
	if s.node != "" {
		labels = append(labels, Label{Key: "node", Value: s.node})
	}
	return &Exemplar{Labels: labels, Value: s.value}
}

func newHistogram(bounds []float64, labels []Label) *Histogram {
	if bounds == nil {
		bounds = DefDurationBuckets
	}
	b := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(b) {
		panic("telemetry: histogram buckets must ascend")
	}
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		labels:    labels,
		exemplars: make([]exemplarSlot, len(b)+1),
	}
}

// Observe records one value. NaN observations are dropped: they would
// poison the sum and satisfy no bucket bound.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.observe(v, sort.SearchFloat64s(h.bounds, v))
}

// ObserveExemplar records one value and retains (v, trace_id[, node]) as
// the bucket's exemplar — last observation wins, nothing allocated and
// nothing waited for on the hot path. The exposition attaches it to the
// bucket line in OpenMetrics `# {trace_id="..."}` syntax, so a latency
// spike in a scrape links straight to the decision trace that caused it.
func (h *Histogram) ObserveExemplar(v float64, traceID, node string) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if traceID != "" {
		h.exemplars[i].store(v, traceID, node)
	}
	h.observe(v, i)
}

func (h *Histogram) observe(v float64, bucket int) {
	h.counts[bucket].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// samples renders the histogram as exposition samples: cumulative _bucket
// lines (including the explicit +Inf bucket), then _sum and _count.
// Concurrent Observes during the snapshot may split between the bucket and
// count lines but never corrupt them.
func (h *Histogram) samples() []Sample {
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, Sample{
			Suffix:   "_bucket",
			Labels:   append(copyLabels(h.labels), Label{Key: "le", Value: formatValue(ub)}),
			Value:    float64(cum),
			Exemplar: h.exemplars[i].load(),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out,
		Sample{Suffix: "_bucket", Labels: append(copyLabels(h.labels), Label{Key: "le", Value: "+Inf"}), Value: float64(cum), Exemplar: h.exemplars[len(h.bounds)].load()},
		Sample{Suffix: "_sum", Labels: h.labels, Value: h.Sum()},
		Sample{Suffix: "_count", Labels: h.labels, Value: float64(cum)},
	)
	return out
}
