package breaker

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := New(3, 10*time.Second)
	b.Now = clk.Now

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.Failure()
	}
	if got := b.State(); got != Open {
		t.Fatalf("state after %d failures = %v, want open", 3, got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an attempt before cooldown")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := New(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed (streak was reset)", got)
	}
}

func TestHalfOpenAdmitsOneProbe(t *testing.T) {
	clk := newFakeClock()
	b := New(1, 10*time.Second)
	b.Now = clk.Now

	b.Allow()
	b.Failure() // threshold 1: trips immediately
	clk.Advance(11 * time.Second)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe failure re-opens for another full cooldown.
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	clk.Advance(11 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the second probe")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if !b.Allow() && !b.Allow() {
		t.Fatal("closed breaker stopped allowing")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerCancelReleasesProbeSlot(t *testing.T) {
	clk := newFakeClock()
	b := New(1, time.Second)
	b.Now = clk.Now

	b.Allow()
	b.Failure()
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	// The probe produced no outcome (admission overload, say): Cancel must free
	// the slot without closing or re-opening the breaker.
	b.Cancel()
	if !b.Allow() {
		t.Fatal("cancelled probe slot was not released")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cancel = %v, want half-open", got)
	}
}
