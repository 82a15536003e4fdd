package serve

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
)

// A toy workload (int operand, scripted scheduler) drives the decide
// pipeline over a toy candidate type and evidence row: the generic entry
// and pipeline cannot be branching on a production candidate.
type toyCandidate int

func (c toyCandidate) String() string { return strconv.Itoa(int(c)) }

type toyRow struct {
	c toyCandidate
	t time.Duration
}

func (toyRow) measured(c toyCandidate, t time.Duration) toyRow { return toyRow{c, t} }
func (r toyRow) appendTo(w *wire)                              { w.int(int64(r.t)) }

// toyDecision is the toy scheduler's pooled answer.
type toyDecision struct{ released bool }

func (d *toyDecision) Verdict() core.Verdict[toyCandidate] {
	return core.Verdict[toyCandidate]{Candidate: 3, Rung: core.RungMeasured,
		Measured: map[toyCandidate]time.Duration{3: 5, 1: 9}}
}
func (d *toyDecision) Release() { d.released = true }

type flake struct{ error }

func (flake) Transient() bool { return true }

func TestSeamDecideToyWorkload(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, Config{BreakerThreshold: 1, DegradedTTL: time.Second})
	var fail atomic.Bool
	var chose, published atomic.Int64
	var last *toyDecision
	entered, release := make(chan struct{}, 1), make(chan struct{})
	w := &workload[int, toyCandidate, toyRow]{cache: newDecisionCache[*Cached[toyCandidate, toyRow]](s.cfg)}
	w.cache.now = clk.Now
	w.choose = func(context.Context, core.Policy, int) (decision[toyCandidate], error) {
		if chose.Add(1); fail.Load() {
			return nil, flake{errors.New("kernel flaked")}
		}
		entered <- struct{}{}
		<-release
		last = &toyDecision{}
		return last, nil
	}
	w.history = func(int) (toyCandidate, bool) { return 0, false }
	w.predict = func(int) (toyCandidate, float64, bool) { return 0, 0, false }
	w.model = func(int) (toyCandidate, float64) { return 1, 0 }
	w.publish = func([]byte, int, *Cached[toyCandidate, toyRow]) { published.Add(1) }
	run := func(key string) (*Cached[toyCandidate, toyRow], string) {
		val, outcome, err := decide(context.Background(), s, w, core.Hybrid, []byte(key), 7)
		if err != nil {
			t.Error(err)
		}
		return val, outcome
	}
	// The leader blocks in choose while a second request joins it.
	outcomes := make(chan string, 2)
	go func() { _, o := run("k1"); outcomes <- o }()
	<-entered
	go func() { _, o := run("k1"); outcomes <- o }()
	for w.cache.dedups.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if a, b := <-outcomes, <-outcomes; a+b != "missdedup" && a+b != "dedupmiss" {
		t.Fatalf("concurrent outcomes %q %q, want one miss and one dedup", a, b)
	}
	val, o := run("k1")
	if o != "hit" || chose.Load() != 1 || published.Load() != 1 || w.measurements.Load() != 1 {
		t.Fatalf("warm: %q, chose %d, published %d, measured %d", o, chose.Load(), published.Load(), w.measurements.Load())
	}
	// The entry is the decision's verdict, released, with its evidence rendered by the toy row.
	if _, raw := val.evidence(); val.Candidate != 3 || val.Rung != core.RungMeasured || !last.released || string(raw) != "[5,9]" {
		t.Fatalf("entry %+v (evidence %s), decision released %v", val.Verdict, raw, last.released)
	}
	// A failed measurement degrades, trips the breaker, and is cached for the TTL only.
	fail.Store(true)
	if val, o := run("k2"); o != "miss" || w.degraded.Load() != 1 || s.breaker.State() != breaker.Open ||
		val.Candidate != 1 || val.Rung != core.RungModel || !val.Degraded {
		t.Fatalf("failure: %q %+v, degraded %d, breaker %v", o, val, w.degraded.Load(), s.breaker.State())
	}
	if _, o := run("k2"); o != "hit" {
		t.Fatalf("degraded entry inside its TTL: %q", o)
	}
	clk.Advance(2 * time.Second)
	// Expired with the breaker open: the ladder answers, the scheduler is not called.
	if _, o := run("k2"); o != "miss" || chose.Load() != 2 || w.degraded.Load() != 2 {
		t.Fatalf("breaker open: %q, chose %d, degraded %d", o, chose.Load(), w.degraded.Load())
	}
}
