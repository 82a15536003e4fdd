// Package fault is a deterministic fault-injection layer for chaos testing
// the scheduling stack. A Registry holds named failpoints parsed from a spec
// string like
//
//	core.measure.err=1;model.load.err=1:3;exec.dispatch.delay=10ms@0.5
//
// and is activated process-wide with Enable. Hot paths consult failpoints
// through the package helpers (Inject, Disrupt, Skew, Perturb); with no
// registry enabled every helper is a single atomic nil-check, so the
// production fast path pays nothing.
//
// A failpoint name is <site>.<kind>, where the kind suffix selects the
// action:
//
//	<site>.delay   sleep for a duration        value: duration   ("10ms")
//	<site>.err     return ErrInjected          value: probability ("1", "0.25")
//	<site>.panic   panic at the site           value: probability
//	<site>.skew    scale a measured duration   value: factor      ("2.5")
//	<site>.perturb jitter a numeric result     value: ±relative fraction ("0.1")
//
// Every value takes two optional suffixes: @p gates the point on an
// activation probability, and :n caps the number of activations (after n
// fires the point goes quiet — the shape transient-failure tests need).
// Probability draws come from a per-point PRNG seeded from the registry seed
// and the point name, so runs are reproducible: no wall-clock randomness.
//
// Sites wired through the repository (see DESIGN.md §9): exec.dispatch,
// core.build, core.measure, core.predict, serve.request, serve.cache,
// model.load.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrInjected is the sentinel every injected error matches with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// InjectedError is the concrete error an .err failpoint returns. It names
// the point so logs and tests can tell injections apart, matches ErrInjected
// with errors.Is, and reports Transient() true so retry layers treat it as a
// recoverable measurement failure.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string { return "fault: injected error at " + e.Point }

// Is makes errors.Is(err, ErrInjected) hold for every injected error.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Transient marks the failure as retryable (see core.IsTransient).
func (e *InjectedError) Transient() bool { return true }

// PanicValue is what a .panic failpoint panics with, so recover sites can
// distinguish injected panics from real ones.
type PanicValue struct{ Point string }

func (p PanicValue) String() string { return "fault: injected panic at " + p.Point }

// Kind is the failpoint action, derived from the point name's suffix.
type Kind uint8

// Failpoint kinds.
const (
	KindDelay Kind = iota
	KindErr
	KindPanic
	KindSkew
	KindPerturb
)

// String returns the kind's spec-suffix name.
func (k Kind) String() string {
	switch k {
	case KindDelay:
		return "delay"
	case KindErr:
		return "err"
	case KindPanic:
		return "panic"
	case KindSkew:
		return "skew"
	case KindPerturb:
		return "perturb"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// point is one armed failpoint.
type point struct {
	name   string
	kind   Kind
	prob   float64       // activation probability in (0, 1]
	dur    time.Duration // KindDelay
	factor float64       // KindSkew multiplier / KindPerturb ±fraction

	limited bool
	budget  atomic.Int64 // remaining activations when limited
	fired   atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// fire decides whether the point activates this time, consuming budget and
// counting the activation.
func (p *point) fire() bool {
	if p.prob < 1 {
		p.mu.Lock()
		roll := p.rng.Float64()
		p.mu.Unlock()
		if roll >= p.prob {
			return false
		}
	}
	if p.limited && p.budget.Add(-1) < 0 {
		return false
	}
	p.fired.Add(1)
	return true
}

// site groups the failpoints sharing one instrumentation site.
type site struct {
	delay, err, panicp, skew, perturb *point
}

// Registry is an immutable set of armed failpoints. Build one with Parse and
// activate it with Enable; the counters inside keep working after Enable(nil)
// so tests can assert on what fired.
type Registry struct {
	sites  map[string]*site
	points []*point // stable order for Snapshot
	seed   int64
}

// active is the process-wide registry; nil means faults off and makes every
// package helper a single atomic load.
var active atomic.Pointer[Registry]

// Enable activates r process-wide; nil deactivates fault injection.
func Enable(r *Registry) { active.Store(r) }

// kindSuffixes maps the point-name suffix to its kind.
var kindSuffixes = map[string]Kind{
	"delay":   KindDelay,
	"err":     KindErr,
	"panic":   KindPanic,
	"skew":    KindSkew,
	"perturb": KindPerturb,
}

// Parse builds a registry from a spec string: semicolon- (or comma-)
// separated name=value entries as described in the package comment. seed
// makes every probabilistic draw reproducible.
func Parse(spec string, seed int64) (*Registry, error) {
	r := &Registry{sites: make(map[string]*site), seed: seed}
	for _, entry := range strings.FieldsFunc(spec, func(c rune) bool { return c == ';' || c == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, value, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q: want name=value", entry)
		}
		name = strings.TrimSpace(name)
		dot := strings.LastIndexByte(name, '.')
		if dot <= 0 {
			return nil, fmt.Errorf("fault: point %q: want <site>.<kind>", name)
		}
		siteName, suffix := name[:dot], name[dot+1:]
		kind, ok := kindSuffixes[suffix]
		if !ok {
			return nil, fmt.Errorf("fault: point %q: unknown kind %q (want delay, err, panic, skew, or perturb)", name, suffix)
		}
		p, err := parsePoint(name, kind, strings.TrimSpace(value), seed)
		if err != nil {
			return nil, err
		}
		st := r.sites[siteName]
		if st == nil {
			st = &site{}
			r.sites[siteName] = st
		}
		slot := map[Kind]**point{
			KindDelay: &st.delay, KindErr: &st.err, KindPanic: &st.panicp,
			KindSkew: &st.skew, KindPerturb: &st.perturb,
		}[kind]
		if *slot != nil {
			return nil, fmt.Errorf("fault: point %q armed twice", name)
		}
		*slot = p
		r.points = append(r.points, p)
	}
	if len(r.points) == 0 {
		return nil, fmt.Errorf("fault: empty spec")
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].name < r.points[j].name })
	return r, nil
}

// parsePoint parses one value of the form base[@prob][:count].
func parsePoint(name string, kind Kind, value string, seed int64) (*point, error) {
	p := &point{name: name, kind: kind, prob: 1}
	if base, count, ok := strings.Cut(value, ":"); ok {
		n, err := strconv.Atoi(count)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fault: point %q: activation count %q is not a positive integer", name, count)
		}
		p.limited = true
		p.budget.Store(int64(n))
		value = base
	}
	if base, prob, ok := strings.Cut(value, "@"); ok {
		f, err := strconv.ParseFloat(prob, 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("fault: point %q: probability %q outside (0, 1]", name, prob)
		}
		p.prob = f
		value = base
	}
	switch kind {
	case KindDelay:
		d, err := time.ParseDuration(value)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("fault: point %q: bad delay %q (want a positive duration like 10ms)", name, value)
		}
		p.dur = d
	case KindErr, KindPanic:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("fault: point %q: probability %q outside (0, 1]", name, value)
		}
		p.prob = f
	case KindSkew:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("fault: point %q: bad skew factor %q (want a positive multiplier)", name, value)
		}
		p.factor = f
	case KindPerturb:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("fault: point %q: bad perturbation %q (want a positive relative fraction)", name, value)
		}
		p.factor = f
	}
	// Seed each point independently from the registry seed and the point
	// name, so adding a point never reshuffles another point's draws.
	h := fnv.New64a()
	h.Write([]byte(name))
	p.rng = rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	return p, nil
}

// Inject fires the delay, panic, and err failpoints armed for site, in that
// order. It returns the injected error, or nil when the site is quiet. The
// fast path (no registry enabled) is one atomic load.
func Inject(site string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.inject(site)
}

// Disrupt is Inject for sites that cannot surface an error (like kernel
// dispatch): it fires only the delay and panic failpoints.
func Disrupt(siteName string) {
	r := active.Load()
	if r == nil {
		return
	}
	st := r.sites[siteName]
	if st == nil {
		return
	}
	st.disrupt()
}

func (r *Registry) inject(siteName string) error {
	st := r.sites[siteName]
	if st == nil {
		return nil
	}
	st.disrupt()
	if st.err != nil && st.err.fire() {
		return &InjectedError{Point: st.err.name}
	}
	return nil
}

func (st *site) disrupt() {
	if st.delay != nil && st.delay.fire() {
		time.Sleep(st.delay.dur)
	}
	if st.panicp != nil && st.panicp.fire() {
		panic(PanicValue{Point: st.panicp.name})
	}
}

// Skew passes a measured duration through the site's skew failpoint,
// multiplying it by the armed factor when the point fires. Timer-skew
// injection models a machine whose clock or load lies to the measurement
// loop.
func Skew(siteName string, d time.Duration) time.Duration {
	r := active.Load()
	if r == nil {
		return d
	}
	st := r.sites[siteName]
	if st == nil || st.skew == nil || !st.skew.fire() {
		return d
	}
	return time.Duration(float64(d) * st.skew.factor)
}

// Perturb passes a numeric result through the site's perturb failpoint,
// scaling it by a seeded random factor in [1-f, 1+f] when the point fires.
func Perturb(siteName string, v float64) float64 {
	r := active.Load()
	if r == nil {
		return v
	}
	st := r.sites[siteName]
	if st == nil || st.perturb == nil {
		return v
	}
	p := st.perturb
	if !p.fire() {
		return v
	}
	p.mu.Lock()
	u := 2*p.rng.Float64() - 1
	p.mu.Unlock()
	return v * (1 + p.factor*u)
}

// PointStats is one failpoint's counter snapshot.
type PointStats struct {
	Name  string
	Kind  Kind
	Fired int64
	// Remaining is the unexhausted activation budget; -1 means unlimited.
	Remaining int64
}

// Snapshot lists every armed failpoint with its activation count, sorted by
// name.
func (r *Registry) Snapshot() []PointStats {
	if r == nil {
		return nil
	}
	out := make([]PointStats, 0, len(r.points))
	for _, p := range r.points {
		rem := int64(-1)
		if p.limited {
			if rem = p.budget.Load(); rem < 0 {
				rem = 0
			}
		}
		out = append(out, PointStats{Name: p.name, Kind: p.kind, Fired: p.fired.Load(), Remaining: rem})
	}
	return out
}

// MetricFamilies renders the active registry's counters as telemetry
// families: an enabled gauge, plus one activation counter per armed point
// when a registry is enabled. Points appear in spec order, which is fixed
// for a registry's lifetime, so exposition output is deterministic.
func MetricFamilies(prefix string) []telemetry.Family {
	r := active.Load()
	enabled := telemetry.Family{
		Name: prefix + "_faults_enabled", Kind: telemetry.KindGauge,
		Help:    "1 when a fault-injection registry is armed.",
		Samples: []telemetry.Sample{{Value: 0}},
	}
	if r == nil {
		return []telemetry.Family{enabled}
	}
	enabled.Samples[0].Value = 1
	injected := telemetry.Family{
		Name: prefix + "_fault_injected_total", Kind: telemetry.KindCounter,
		Help: "Failpoint activations by point.",
	}
	for _, ps := range r.Snapshot() {
		injected.Samples = append(injected.Samples, telemetry.Sample{
			Labels: []telemetry.Label{telemetry.L("point", ps.Name)},
			Value:  float64(ps.Fired),
		})
	}
	return []telemetry.Family{enabled, injected}
}

// String lists the armed points, for startup logs.
func (r *Registry) String() string {
	if r == nil {
		return "<no faults>"
	}
	names := make([]string, len(r.points))
	for i, p := range r.points {
		names[i] = p.name
	}
	return strings.Join(names, ",")
}
