package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func histFamily(t *testing.T, reg *Registry, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestHistogramZeroObservations: a registered histogram with no data must
// still expose a full, lint-clean bucket ladder with zero counts.
func TestHistogramZeroObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("empty_seconds", "no data", []float64{0.001, 0.01, 0.1})
	if h.Sum() != 0 {
		t.Fatalf("fresh histogram sum=%g", h.Sum())
	}
	out := histFamily(t, reg, "empty_seconds")
	for _, want := range []string{
		`empty_seconds_bucket{le="0.001"} 0`,
		`empty_seconds_bucket{le="+Inf"} 0`,
		"empty_seconds_sum 0",
		"empty_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
}

// TestHistogramUnderAndOverflow: observations below the smallest bound land
// in the first bucket; observations above the largest bound land only in
// +Inf. Cumulative semantics must hold either way.
func TestHistogramUnderAndOverflow(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge_seconds", "edges", []float64{0.001, 0.01})
	h.Observe(time.Nanosecond.Seconds()) // far below the 1ms floor
	h.Observe(time.Hour.Seconds())       // far above the 10ms ceiling
	out := histFamily(t, reg, "edge_seconds")
	for _, want := range []string{
		`edge_seconds_bucket{le="0.001"} 1`,
		`edge_seconds_bucket{le="0.01"} 1`,
		`edge_seconds_bucket{le="+Inf"} 2`,
		"edge_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if got := h.Sum(); math.Abs(got-3600.000000001) > 1e-6 {
		t.Errorf("sum = %g, want ~3600", got)
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
}

// TestHistogramBoundaryExactness: a value exactly on a bucket bound counts
// into that bucket (le is inclusive).
func TestHistogramBoundaryExactness(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bound_seconds", "bounds", []float64{1, 2})
	h.Observe(1)
	h.Observe(2)
	out := histFamily(t, reg, "bound_seconds")
	for _, want := range []string{
		`bound_seconds_bucket{le="1"} 1`,
		`bound_seconds_bucket{le="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramNaNDropped(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("nan_seconds", "nan", []float64{1})
	h.Observe(math.NaN())
	if out := histFamily(t, reg, "nan_seconds"); !strings.Contains(out, "nan_seconds_count 0\n") || h.Sum() != 0 {
		t.Fatalf("NaN observation counted:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// TestHistogramConcurrentObserve is the -race proof: concurrent Observes
// must never lose counts or corrupt the sum.
func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_obs_seconds", "concurrent", ExpBuckets(1e-6, 2, 20))
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-7)
			}
		}(g)
	}
	wg.Wait()
	out := histFamily(t, reg, "conc_obs_seconds")
	if want := fmt.Sprintf("conc_obs_seconds_count %d\n", goroutines*per); !strings.Contains(out, want) {
		t.Fatalf("missing %q:\n%s", want, out)
	}
	n := float64(goroutines * per)
	wantSum := 1e-7 * n * (n - 1) / 2
	if math.Abs(h.Sum()-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
}
