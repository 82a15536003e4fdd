package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
)

// A toy workload (int operand, scripted scheduler) drives the decide
// pipeline without naming a production candidate type.
type toyDecision struct {
	source   string
	degraded bool
}

func (d *toyDecision) IsDegraded() bool              { return d.degraded }
func (d *toyDecision) provenance() (string, float64) { return d.source, 0 }
func (d *toyDecision) verdict() decisionWire {
	return decisionWire{Source: d.source, Degraded: d.degraded}
}

type flake struct{ error }

func (flake) Transient() bool { return true }

func TestSeamDecideToyWorkload(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, Config{BreakerThreshold: 1, DegradedTTL: time.Second})
	var fail atomic.Bool
	var chose, published atomic.Int64
	entered, release := make(chan struct{}, 1), make(chan struct{})
	w := &workload[int, *toyDecision]{cache: newDecisionCache[*toyDecision](s.cfg)}
	w.cache.now = clk.Now
	w.choose = func(context.Context, core.Policy, int) (*toyDecision, error) {
		if chose.Add(1); fail.Load() {
			return nil, flake{errors.New("kernel flaked")}
		}
		entered <- struct{}{}
		<-release
		return &toyDecision{source: "measured"}, nil
	}
	w.degrade = func(int) *toyDecision { return &toyDecision{source: "model", degraded: true} }
	w.publish = func([]byte, int, *toyDecision) { published.Add(1) }
	run := func(key string) string {
		_, outcome, err := decide(context.Background(), s, w, core.Hybrid, []byte(key), 7)
		if err != nil {
			t.Error(err)
		}
		return outcome
	}
	// The leader blocks in choose while a second request joins it.
	outcomes := make(chan string, 2)
	go func() { outcomes <- run("k1") }()
	<-entered
	go func() { outcomes <- run("k1") }()
	for w.cache.dedups.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if a, b := <-outcomes, <-outcomes; a+b != "missdedup" && a+b != "dedupmiss" {
		t.Fatalf("concurrent outcomes %q %q, want one miss and one dedup", a, b)
	}
	if o := run("k1"); o != "hit" || chose.Load() != 1 || published.Load() != 1 || w.measurements.Load() != 1 {
		t.Fatalf("warm: %q, chose %d, published %d, measured %d", o, chose.Load(), published.Load(), w.measurements.Load())
	}
	// A failed measurement degrades, trips the breaker, and is cached for the TTL only.
	fail.Store(true)
	if o := run("k2"); o != "miss" || w.degraded.Load() != 1 || s.breaker.State() != breaker.Open {
		t.Fatalf("failure: %q, degraded %d, breaker %v", o, w.degraded.Load(), s.breaker.State())
	}
	if o := run("k2"); o != "hit" {
		t.Fatalf("degraded entry inside its TTL: %q", o)
	}
	clk.Advance(2 * time.Second)
	// Expired with the breaker open: the ladder answers, the scheduler is not called.
	if o := run("k2"); o != "miss" || chose.Load() != 2 || w.degraded.Load() != 2 {
		t.Fatalf("breaker open: %q, chose %d, degraded %d", o, chose.Load(), w.degraded.Load())
	}
}
