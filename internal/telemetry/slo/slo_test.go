package slo

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced clock for window-math tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time            { return c.t }
func (c *fakeClock) advance(d time.Duration)   { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                 { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func almost(a, b float64) bool                 { return math.Abs(a-b) < 1e-9 }
func tracker(c *fakeClock, o Options) *Tracker { o.Now = c.now; return NewTracker(o) }

func TestBurnRateMath(t *testing.T) {
	clk := newFakeClock()
	tr := tracker(clk, Options{})
	s := tr.Add("availability", 0.999)

	// 999 good + 1 bad = exactly on a 99.9% budget: burn 1 on both windows.
	for i := 0; i < 999; i++ {
		s.Record(true)
	}
	s.Record(false)
	h := tr.Health()
	if !almost(h.SLOs[0].BurnShort, 1) || !almost(h.SLOs[0].BurnLong, 1) {
		t.Fatalf("on-budget burn: got short=%g long=%g, want 1", h.SLOs[0].BurnShort, h.SLOs[0].BurnLong)
	}
	if h.Status != StateOK {
		t.Fatalf("on-budget status = %s, want ok", h.Status)
	}

	// 10 bad in 1000 events = 1% error rate = burn 10 against a 0.1% budget.
	clk.advance(DefLongWindow + time.Minute) // age everything out first
	for i := 0; i < 990; i++ {
		s.Record(true)
	}
	for i := 0; i < 10; i++ {
		s.Record(false)
	}
	h = tr.Health()
	if !almost(h.SLOs[0].BurnShort, 10) {
		t.Fatalf("1%% errors: short burn = %g, want 10", h.SLOs[0].BurnShort)
	}
	// Push clearly past the critical threshold on both windows (the exact
	// threshold is float-rounding territory, not worth pinning).
	for i := 0; i < 90; i++ {
		s.Record(false)
	}
	if h = tr.Health(); h.Status != StateCritical {
		t.Fatalf("burn ~90 on both windows should be critical, got %s (short=%g long=%g)",
			h.Status, h.SLOs[0].BurnShort, h.SLOs[0].BurnLong)
	}
}

func TestWindowsAgeOut(t *testing.T) {
	clk := newFakeClock()
	tr := tracker(clk, Options{})
	s := tr.Add("availability", 0.99)

	// A pure fault storm: every event bad. Burn = 1/(1-0.99) = 100.
	for i := 0; i < 50; i++ {
		s.Record(false)
	}
	if h := tr.Health(); !almost(h.SLOs[0].BurnShort, 100) {
		t.Fatalf("storm burn = %g, want 100", h.SLOs[0].BurnShort)
	}

	// Past the short window the storm leaves the 5m ring but stays in the
	// 1h ring: short burn drops to 0 (with fresh good traffic), long stays up.
	clk.advance(DefShortWindow + time.Minute)
	for i := 0; i < 50; i++ {
		s.Record(true)
	}
	h := tr.Health()
	if !almost(h.SLOs[0].BurnShort, 0) {
		t.Fatalf("short burn after window = %g, want 0", h.SLOs[0].BurnShort)
	}
	if h.SLOs[0].BurnLong <= 1 {
		t.Fatalf("long burn should remember the storm, got %g", h.SLOs[0].BurnLong)
	}
	if h.Status != StateOK {
		t.Fatalf("recovered short window should be ok, got %s", h.Status)
	}

	// Past the long window everything ages out.
	clk.advance(DefLongWindow + time.Minute)
	s.Record(true)
	h = tr.Health()
	if !almost(h.SLOs[0].BurnLong, 0) {
		t.Fatalf("long burn after aging = %g, want 0", h.SLOs[0].BurnLong)
	}
	if h.SLOs[0].GoodTotal != 51 || h.SLOs[0].BadTotal != 50 {
		t.Fatalf("lifetime totals survive aging: got %d/%d, want 51/50",
			h.SLOs[0].GoodTotal, h.SLOs[0].BadTotal)
	}
}

func TestMultiWindowStatesDegradedVsCritical(t *testing.T) {
	clk := newFakeClock()
	tr := tracker(clk, Options{})
	s := tr.Add("latency", 0.99)

	// An hour of clean traffic fills the long window with good events.
	for i := 0; i < 60; i++ {
		for j := 0; j < 20; j++ {
			s.Record(true)
		}
		clk.advance(time.Minute)
	}
	// A short spike: all-bad for a minute. Short burn 100, long burn
	// diluted by the hour of good traffic → degraded, not critical.
	for i := 0; i < 20; i++ {
		s.Record(false)
	}
	h := tr.Health()
	if h.SLOs[0].Status != StateDegraded {
		t.Fatalf("short spike should degrade, got %s (short=%g long=%g)",
			h.SLOs[0].Status, h.SLOs[0].BurnShort, h.SLOs[0].BurnLong)
	}
	// Sustain the spike past both thresholds: all-bad traffic for the rest
	// of the hour pushes the long window over the critical burn too.
	for i := 0; i < 60; i++ {
		for j := 0; j < 20; j++ {
			s.Record(false)
		}
		clk.advance(time.Minute)
	}
	if h := tr.Health(); h.Status != StateCritical {
		t.Fatalf("sustained storm should be critical, got %s", h.Status)
	}
	// And recovery: a clean short window drops it back from critical.
	clk.advance(DefShortWindow + time.Minute)
	s.Record(true)
	if h := tr.Health(); h.Status != StateOK {
		t.Fatalf("clean short window should recover, got %s", h.Status)
	}
}

func TestZeroTrafficIsHealthy(t *testing.T) {
	clk := newFakeClock()
	tr := tracker(clk, Options{})
	tr.Add("availability", 0.999)
	if h := tr.Health(); h.Status != StateOK || h.SLOs[0].BurnShort != 0 {
		t.Fatalf("zero traffic: got %+v, want ok / burn 0", h)
	}
}

func TestMetricFamiliesLint(t *testing.T) {
	clk := newFakeClock()
	tr := tracker(clk, Options{})
	a := tr.Add("availability", 0.999)
	tr.Add("latency", 0.95)
	a.Record(true)
	a.Record(false)

	var b strings.Builder
	fams := tr.MetricFamilies("layoutd")
	if err := telemetry.WriteFamilies(&b, fams); err != nil {
		t.Fatal(err)
	}
	if errs := telemetry.Lint(strings.NewReader(b.String())); len(errs) > 0 {
		t.Fatalf("slo families do not lint: %v\n%s", errs, b.String())
	}
	// One good and one bad event burn the 0.1% budget 500 times over in
	// both windows: availability is critical, latency has seen nothing.
	burn := tr.Health().SLOs[0].BurnShort
	for _, want := range []string{
		fmt.Sprintf(`layoutd_slo_burn_rate{slo="availability",window="short"} %v`, burn),
		fmt.Sprintf(`layoutd_slo_burn_rate{slo="availability",window="long"} %v`, burn),
		`layoutd_slo_state{slo="availability"} 2`,
		`layoutd_slo_state{slo="latency"} 0`,
		`layoutd_slo_target{slo="availability"} 0.999`,
		`layoutd_slo_good_total{slo="availability"} 1`,
		`layoutd_slo_bad_total{slo="availability"} 1`,
		`layoutd_slo_health 2`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestAddValidation(t *testing.T) {
	tr := NewTracker(Options{})
	tr.Add("a", 0.9)
	for _, bad := range []func(){
		func() { tr.Add("a", 0.9) },  // duplicate
		func() { tr.Add("b", 0) },    // target out of range
		func() { tr.Add("c", 1) },    // target out of range
		func() { tr.Add("d", -0.5) }, // target out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			bad()
		}()
	}
}

func TestNilSLORecordIsSafe(t *testing.T) {
	var s *SLO
	s.Record(true) // must not panic
}
