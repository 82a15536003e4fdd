package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable time source for breaker and cache-TTL tests.
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

func TestBreakerDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BreakerThreshold != DefaultBreakerThreshold || cfg.BreakerCooldown != DefaultBreakerCooldown {
		t.Fatalf("defaults not applied: threshold=%d cooldown=%v", cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
}
