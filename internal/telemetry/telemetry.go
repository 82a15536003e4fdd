// Package telemetry is the repository's unified observability layer: one
// registry of lock-cheap counters, gauges, and log-bucketed latency
// histograms with deterministic Prometheus text exposition; a decision-trace
// span API threaded through the scheduler (see core.Scheduler.ChooseContext)
// with a bounded ring buffer of completed traces; and structured leveled
// logging built on log/slog.
//
// Three rules keep the hot path cheap:
//
//   - metric handles (*Counter, *Gauge, *Histogram) are resolved once at
//     registration and then updated with a single atomic op — no map lookup,
//     no lock, no allocation per observation;
//   - spans only exist when a trace rides the context — StartSpan on a
//     trace-free context returns the zero Span, whose every method is a
//     no-op, so untraced calls pay one context lookup and nothing else —
//     and when one does, a span is a record in storage the trace ring
//     recycles, its numeric attributes formatted only when the trace is read;
//   - exposition is pull-time work: Collectors snapshot external counters
//     (kernel stats, fault activations, cache stats) only when /metrics is
//     scraped.
//
// Exposition output is deterministic: families sort by name, series within a
// family sort by label signature, and every family carries exactly one
// `# HELP` and one `# TYPE` line, so scrapes diff cleanly and the lint in
// Lint can enforce well-formedness in CI (make metrics-lint).
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the exposition type of a metric family.
type Kind uint8

// Metric family kinds, matching the Prometheus text-exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindUntyped
)

// String returns the TYPE-line name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one exposition line of a family: an optional name suffix
// (histograms expose _bucket/_sum/_count), the label set, and the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
	// Exemplar, when non-nil, is appended to the sample line in OpenMetrics
	// `# {label="..."} value` syntax. Only histogram _bucket samples carry
	// exemplars here.
	Exemplar *Exemplar
}

// Exemplar is one retained observation with trace attribution: the label
// set (trace_id, optionally node) and the observed value. Histogram buckets
// keep the last observation recorded through ObserveExemplar.
type Exemplar struct {
	Labels []Label
	Value  float64
}

// Family is a named group of samples sharing one TYPE — the unit the
// exposition writer and Collectors speak.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Collector contributes families to a Registry at scrape time. Implementors
// snapshot external state (kernel counters, fault activations, cache stats)
// so the owning subsystem keeps its own representation and pays nothing
// between scrapes.
type Collector interface {
	MetricFamilies() []Family
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Family

// MetricFamilies calls f.
func (f CollectorFunc) MetricFamilies() []Family { return f() }

// Registry holds metric families and scrape-time collectors. Metric
// registration takes a lock; the returned handles update atomically with no
// further registry involvement. The zero value is not usable — construct
// with NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	names      []string // registration order; sorted at exposition
	collectors []Collector
}

// family is one registered metric family and its live series.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]any // label signature -> *Counter/*Gauge/*Histogram/funcMetric
	order  []string
}

// funcMetric is a scrape-time-evaluated series (GaugeFunc/CounterFunc).
type funcMetric struct {
	labels []Label
	fn     func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature canonicalizes a label set for series identity: sorted by key,
// joined with the exposition escaping so distinct sets never collide.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// lookup returns the family, creating it on first use and enforcing that a
// name keeps one kind for the registry's lifetime.
func (r *Registry) lookup(name, help string, kind Kind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	return f
}

// getOrCreate returns the series under sig, creating it with make when new.
func (f *family) getOrCreate(sig string, make func() any) any {
	m := f.series[sig]
	if m == nil {
		m = make()
		f.series[sig] = m
		f.order = append(f.order, sig)
	}
	return m
}

// Counter registers (or fetches) a monotonically increasing counter series.
// Callers keep the returned handle; updates are one atomic add.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindCounter)
	c := f.getOrCreate(signature(labels), func() any { return &Counter{labels: copyLabels(labels)} })
	counter, ok := c.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: series %s{%s} is not a settable counter", name, signature(labels)))
	}
	return counter
}

// Gauge registers (or fetches) a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindGauge)
	g := f.getOrCreate(signature(labels), func() any { return &Gauge{labels: copyLabels(labels)} })
	gauge, ok := g.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: series %s{%s} is not a settable gauge", name, signature(labels)))
	}
	return gauge
}

// GaugeFunc registers a gauge series whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindGauge, fn, labels)
}

// CounterFunc registers a counter series whose value is read at scrape time
// from an external monotonic source (e.g. cache hit counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, KindCounter, fn, labels)
}

func (r *Registry) registerFunc(name, help string, kind Kind, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kind)
	sig := signature(labels)
	f.getOrCreate(sig, func() any { return funcMetric{labels: copyLabels(labels), fn: fn} })
}

// Histogram registers (or fetches) a histogram series with the given bucket
// upper bounds (ascending, +Inf implicit). nil buckets take
// DefDurationBuckets, the log-spaced latency defaults.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, KindHistogram)
	h := f.getOrCreate(signature(labels), func() any { return newHistogram(buckets, copyLabels(labels)) })
	hist, ok := h.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: series %s{%s} is not a histogram", name, signature(labels)))
	}
	return hist
}

// Register adds a scrape-time collector. Collector family names must not
// collide with registered metric names; collisions surface in Lint.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Families snapshots every registered metric and collector into sorted,
// exposition-ready families.
func (r *Registry) Families() []Family {
	r.mu.RLock()
	out := make([]Family, 0, len(r.names))
	for _, name := range r.names {
		f := r.families[name]
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, sig := range f.order {
			switch m := f.series[sig].(type) {
			case *Counter:
				fam.Samples = append(fam.Samples, Sample{Labels: m.labels, Value: float64(m.Value())})
			case *Gauge:
				fam.Samples = append(fam.Samples, Sample{Labels: m.labels, Value: m.Value()})
			case funcMetric:
				fam.Samples = append(fam.Samples, Sample{Labels: m.labels, Value: m.fn()})
			case *Histogram:
				fam.Samples = append(fam.Samples, m.samples()...)
			}
		}
		out = append(out, fam)
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()
	for _, c := range collectors {
		out = append(out, c.MetricFamilies()...)
	}
	sortFamilies(out)
	return out
}

func copyLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	return append([]Label(nil), labels...)
}
