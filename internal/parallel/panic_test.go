package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// recoverRun executes fn and returns the *PanicError it panicked with, or
// nil when it returned normally.
func recoverRun(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		var ok bool
		if pe, ok = p.(*PanicError); !ok {
			t.Fatalf("panicked with %T %v, want *PanicError", p, p)
		}
	}()
	fn()
	return nil
}

func TestPoolBodyPanicPropagatesToSubmitter(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, sched := range []Schedule{Static, Guided} {
		pe := recoverRun(t, func() {
			p.ForRange(1024, sched, func(lo, hi int) {
				if lo <= 100 && 100 < hi {
					panic("poisoned row 100")
				}
			})
		})
		if pe == nil {
			t.Fatalf("%v: body panic did not propagate", sched)
		}
		if pe.Value != "poisoned row 100" {
			t.Fatalf("%v: panic value = %v, want original", sched, pe.Value)
		}
		if !strings.Contains(pe.Error(), "poisoned row 100") {
			t.Fatalf("%v: PanicError.Error() = %q, does not name the cause", sched, pe.Error())
		}
	}
}

func TestPoolSurvivesBodyPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for i := 0; i < 20; i++ {
		if recoverRun(t, func() {
			p.ForRange(256, Static, func(lo, hi int) { panic(errors.New("boom")) })
		}) == nil {
			t.Fatalf("round %d: panic lost", i)
		}
		// The pool must still run normal work to completion afterwards: all
		// workers alive, no stuck tickets.
		var sum atomic.Int64
		p.For(1000, Guided, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 499500 {
			t.Fatalf("round %d: pool broken after panic: sum = %d", i, sum.Load())
		}
	}
}

func TestPoolPanicWaitsForQuiescence(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var inBody atomic.Int32
	pe := recoverRun(t, func() {
		p.ForRange(8192, Static, func(lo, hi int) {
			inBody.Add(1)
			defer inBody.Add(-1)
			if lo == 0 {
				panic("first chunk dies")
			}
			for i := 0; i < 1000; i++ {
				_ = i * i
			}
		})
	})
	if pe == nil {
		t.Fatal("panic did not propagate")
	}
	// By the time the submitter re-raises, no worker may still be inside the
	// body (they could otherwise scribble on caller-owned buffers).
	if n := inBody.Load(); n != 0 {
		t.Fatalf("%d workers still inside the body after the panic surfaced", n)
	}
}
