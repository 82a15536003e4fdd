package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Kind labels one kernel family for the instrumentation counters. The
// sparse formats map 1:1 onto their kinds; KindPair covers the fused
// two-vector SMSV kernels and KindMatMul the dense DNN matrix multiplies.
type Kind uint8

// Kernel families tracked by Stats.
const (
	KindDEN Kind = iota
	KindCSR
	KindCOO
	KindELL
	KindDIA
	KindCSC
	KindHYB
	KindPair
	KindMatMul
	numKinds
)

// String returns the kernel family's short name.
func (k Kind) String() string {
	switch k {
	case KindDEN:
		return "DEN"
	case KindCSR:
		return "CSR"
	case KindCOO:
		return "COO"
	case KindELL:
		return "ELL"
	case KindDIA:
		return "DIA"
	case KindCSC:
		return "CSC"
	case KindHYB:
		return "HYB"
	case KindPair:
		return "PAIR"
	case KindMatMul:
		return "MATMUL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindCounter is padded to a cache line so concurrently updated kinds do
// not false-share.
type kindCounter struct {
	calls atomic.Int64
	elems atomic.Int64
	nanos atomic.Int64
	_     [5]int64
}

// Stats is a set of per-kind kernel counters: invocation count, stored
// elements touched, and cumulative kernel time. The zero value is ready to
// use; all updates are atomic and allocation-free, so one Stats may be
// shared by every goroutine of a training run. Attach with
// Exec.WithStats(&Stats{}).
type Stats struct {
	counters [numKinds]kindCounter
}

func (s *Stats) add(k Kind, elems int64, d time.Duration) {
	if k >= numKinds {
		return
	}
	c := &s.counters[k]
	c.calls.Add(1)
	c.elems.Add(elems)
	c.nanos.Add(int64(d))
}

// Begin starts timing one kernel invocation. It returns the zero Time when
// no stats are attached, so the default path never calls time.Now. Pair
// with End:
//
//	t := ex.Begin()
//	... kernel body ...
//	ex.End(exec.KindCSR, m.StoredElements(), t)
func (e *Exec) Begin() time.Time {
	if e == nil || e.stats == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records one invocation of kind k that touched elems stored elements,
// started at the time Begin returned. No-op without attached stats.
func (e *Exec) End(k Kind, elems int64, start time.Time) {
	if e == nil || e.stats == nil {
		return
	}
	e.stats.add(k, elems, time.Since(start))
}

// KindStats is one kind's counter snapshot.
type KindStats struct {
	Kind     Kind
	Calls    int64
	Elements int64         // stored elements touched, Table II units
	Time     time.Duration // cumulative kernel wall time
}

// Snapshot returns the non-empty counters in Kind order. Concurrent
// updates during the snapshot may split between rows but never corrupt
// them.
func (s *Stats) Snapshot() []KindStats {
	if s == nil {
		return nil
	}
	var out []KindStats
	for k := Kind(0); k < numKinds; k++ {
		c := &s.counters[k]
		calls := c.calls.Load()
		if calls == 0 {
			continue
		}
		out = append(out, KindStats{
			Kind:     k,
			Calls:    calls,
			Elements: c.elems.Load(),
			Time:     time.Duration(c.nanos.Load()),
		})
	}
	return out
}

// Total sums every kind's counters into one row.
func (s *Stats) Total() KindStats {
	var t KindStats
	for _, ks := range s.Snapshot() {
		t.Calls += ks.Calls
		t.Elements += ks.Elements
		t.Time += ks.Time
	}
	return t
}

// MetricFamilies renders the snapshot as telemetry metric families — one
// counter family each for kernel calls, elements touched, and cumulative
// kernel seconds, labelled by kind — so a telemetry.Registry can absorb the
// kernel counters into a /metrics scrape (register via a CollectorFunc
// closing over the Stats). Kinds appear in Kind order, which is stable, so
// exposition output is deterministic. A nil receiver yields no families.
func (s *Stats) MetricFamilies(prefix string) []telemetry.Family {
	snap := s.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	calls := telemetry.Family{Name: prefix + "_kernel_calls", Kind: telemetry.KindCounter,
		Help: "Kernel invocations by kernel family."}
	elems := telemetry.Family{Name: prefix + "_kernel_elements", Kind: telemetry.KindCounter,
		Help: "Stored elements touched by kernels (Table II units)."}
	nanos := telemetry.Family{Name: prefix + "_kernel_nanos", Kind: telemetry.KindCounter,
		Help: "Cumulative kernel wall time in nanoseconds."}
	for _, ks := range snap {
		labels := []telemetry.Label{telemetry.L("kind", ks.Kind.String())}
		calls.Samples = append(calls.Samples, telemetry.Sample{Labels: labels, Value: float64(ks.Calls)})
		elems.Samples = append(elems.Samples, telemetry.Sample{Labels: labels, Value: float64(ks.Elements)})
		nanos.Samples = append(nanos.Samples, telemetry.Sample{Labels: labels, Value: float64(ks.Time)})
	}
	return []telemetry.Family{calls, elems, nanos}
}

// String renders the snapshot as one line per kind.
func (s *Stats) String() string {
	var b strings.Builder
	for _, ks := range s.Snapshot() {
		fmt.Fprintf(&b, "%-6s calls=%d elements=%d time=%v\n",
			ks.Kind, ks.Calls, ks.Elements, ks.Time)
	}
	return b.String()
}
