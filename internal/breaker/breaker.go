// Package breaker is the consecutive-failure circuit breaker shared by the
// serve layer (guarding the measurement path) and the cluster client
// (guarding each peer's forwarding path). Each owner keeps only its own
// default threshold and cooldown.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is the circuit breaker's position.
type State int32

// Closed passes attempts through; Open rejects them until the cooldown
// lapses; HalfOpen lets a single probe through to test recovery.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker trips open after threshold consecutive failures, rejects every
// attempt for cooldown, then admits one probe at a time: a probe's success
// closes the breaker, its failure re-opens it for another cooldown.
type Breaker struct {
	// Now is the clock; tests replace it to step through cooldowns.
	Now func() time.Time

	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight

	opens atomic.Int64 // times tripped, for metrics
}

// New creates a closed breaker; the caller supplies its own defaults, so
// threshold and cooldown must be positive.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Now: time.Now, threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an attempt may be made now. Closed always allows;
// open allows nothing until the cooldown has elapsed, then transitions to
// half-open and admits exactly one probe at a time. An allowed caller MUST
// report the outcome with Success, Failure or Cancel.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.Now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records an attempt that completed: the breaker closes and the
// failure streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Cancel releases an Allow that produced no outcome — the attempt was
// rejected or abandoned before it could succeed or fail — without moving
// the state machine. Crucially it frees a half-open probe slot so the next
// caller can still probe.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed attempt. A closed breaker trips open after
// threshold consecutive failures; a half-open probe failure re-opens
// immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.trip()
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.Now()
	b.fails = 0
	b.probing = false
	b.opens.Add(1)
}

// State reports the current position, advancing open→half-open when the
// cooldown has lapsed so metrics reflect that a probe would be admitted.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.Now().Sub(b.openedAt) >= b.cooldown {
		return HalfOpen
	}
	return b.state
}

// Opens reports how many times the breaker has tripped.
func (b *Breaker) Opens() int64 { return b.opens.Load() }
