package learn

import (
	"errors"
	"os"
	"testing"

	"repro/internal/fault"
)

// TestChaosModelLoadFault: an injected model.load failure surfaces as a
// typed error naming the path — the daemon refuses startup cleanly — and
// drains after its activation budget.
func TestChaosModelLoadFault(t *testing.T) {
	r, err := fault.Parse("model.load.err=1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(r)
	t.Cleanup(func() { fault.Enable(nil) })

	_, err = SMSV.LoadModelFile("some-model.json")
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// Budget spent: the next load reaches the real filesystem.
	_, err = SMSV.LoadModelFile("does-not-exist.json")
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want plain not-exist", err)
	}
}
