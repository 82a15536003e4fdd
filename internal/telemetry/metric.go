package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer series. The zero value is
// usable but unregistered; obtain registered handles from Registry.Counter.
// All methods are safe for concurrent use and allocation-free.
type Counter struct {
	v      atomic.Int64
	labels []Label
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float series. All methods are atomic (the float is
// stored as IEEE-754 bits in a uint64) and safe for concurrent use.
type Gauge struct {
	bits   atomic.Uint64
	labels []Label
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }
