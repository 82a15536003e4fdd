package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// DefaultMeasureRetries is how many times a candidate's transient measurement
// failures are retried, over the whole decision, before it is given up on.
const DefaultMeasureRetries = 2

// defaultRetryBackoff is the first retry's backoff; each further retry
// doubles it and adds seeded full jitter.
const defaultRetryBackoff = 250 * time.Microsecond

// KernelPanicError wraps a panic recovered during a measurement kernel — a
// poisoned dataset or an injected worker fault — so it surfaces to callers
// as an ordinary error instead of tearing down the process.
type KernelPanicError struct {
	Format sparse.Format
	Value  any
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("core: kernel panic measuring %s: %v", e.Format, e.Value)
}

// IsTransient reports whether err is a transient failure worth retrying: any
// error in the chain exposing Transient() true (injected measurement faults,
// and any future I/O-flake classification). Context cancellation and kernel
// panics are deliberately not transient — the former must abort, the latter
// reproduces deterministically on the same data.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// backoff waits before retry n+1 of a transient measurement failure: the
// first waits retryBackoff, each further one twice as long, plus seeded full
// jitter, so that retry storms against a struggling machine stay spread out
// and tests stay reproducible. Context expiry ends the wait with its error.
func (l *ladder[P, C]) backoff(ctx context.Context, n int, rng *rand.Rand, traced bool) error {
	delay := l.retryBackoff<<n + time.Duration(rng.Int63n(int64(l.retryBackoff)))
	var rsp telemetry.Span
	if traced {
		rsp = telemetry.StartLeaf(ctx, "measure.retry-backoff", telemetry.Dur("delay", delay))
	}
	timer := time.NewTimer(delay)
	select {
	case <-ctx.Done():
		timer.Stop()
		rsp.EndErr(ctx.Err())
		return ctx.Err()
	case <-timer.C:
		rsp.End()
		return nil
	}
}
