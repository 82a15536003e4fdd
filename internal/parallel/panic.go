package parallel

import (
	"fmt"
	"sync"
)

// PanicError is re-raised on the submitting goroutine when a For/ForRange
// body panics on a worker. Without it a body panic would unwind a pool
// worker's own stack and kill the whole process — one poisoned dataset must
// surface as a recoverable panic at the call site, not a daemon crash.
// Value holds what the body panicked with.
type PanicError struct{ Value any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", e.Value)
}

// panicBox collects the first body panic of one run. Later panics from other
// workers of the same run are dropped: one representative failure is enough
// to abort and report.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

func (b *panicBox) record(p any) {
	b.mu.Lock()
	if !b.set {
		b.val, b.set = p, true
	}
	b.mu.Unlock()
}

// take returns the recorded panic, if any.
func (b *panicBox) take() (val any, set bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val, b.set
}

// reset empties the box for the record's next run.
func (b *panicBox) reset() {
	b.mu.Lock()
	b.val, b.set = nil, false
	b.mu.Unlock()
}
