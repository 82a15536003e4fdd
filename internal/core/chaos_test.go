package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// arm parses and enables a failpoint spec for the duration of the test.
func arm(t *testing.T, spec string) *fault.Registry {
	t.Helper()
	r, err := fault.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(r)
	t.Cleanup(func() { fault.Enable(nil) })
	return r
}

// TestChaosChooseRetriesTransientMeasureFailure: the first two measurement
// attempts fail with an injected transient error; bounded retry with backoff
// must absorb them and still return a valid decision.
func TestChaosChooseRetriesTransientMeasureFailure(t *testing.T) {
	reg := arm(t, "core.measure.err=1:2")
	b := buildRandom(t, 150, 60, 0.2, 3)
	s := New(Config{Policy: Hybrid, RetryBackoff: 50 * time.Microsecond})
	d, err := s.Choose(b)
	if err != nil {
		t.Fatalf("decision failed despite retry budget: %v", err)
	}
	if d.Matrix == nil || d.Matrix.Format() != d.Chosen {
		t.Fatal("decision did not materialize the chosen format")
	}
	if got := reg.Snapshot()[0].Fired; got != 2 {
		t.Fatalf("failpoint fired %d times, want 2", got)
	}
}

type chaosChoose func(t *testing.T, topK int, ex *exec.Exec) (measured int, err error)

// chaosSchedulers are the two workloads the chaos cases below run against:
// the fault sites sit in the shared ladder, so each case must come out the
// same whichever scheduler drives it. choose runs one hybrid decision over
// topK candidates (ex nil = the default pool) and reports how many of them
// were measured.
var chaosSchedulers = []struct {
	name   string
	choose chaosChoose
}{
	{"smsv", func(t *testing.T, topK int, ex *exec.Exec) (int, error) {
		s := New(Config{Policy: Hybrid, TopK: topK, Exec: ex, RetryBackoff: 20 * time.Microsecond})
		d, err := s.Choose(buildRandom(t, 300, 80, 0.2, 2))
		if err != nil {
			return 0, err
		}
		if d.Matrix == nil || d.Matrix.Format() != d.Chosen {
			t.Error("decision did not materialize the chosen format")
		}
		for c := range d.Measured {
			if !c.Valid() {
				t.Errorf("impossible candidate measured: %v", c)
			}
		}
		return len(d.Measured), nil
	}},
	{"spgemm", func(t *testing.T, topK int, ex *exec.Exec) (int, error) {
		s := NewSpGEMM(SpGEMMConfig{Policy: Hybrid, TopK: topK, Exec: ex, RetryBackoff: 20 * time.Microsecond})
		a, b := pairBuilders(2, 60, 40, 30, 0.2)
		d, err := s.ChooseContext(context.Background(), a, b)
		if err != nil {
			return 0, err
		}
		if _, ok := d.Measured[d.Chosen]; !ok || d.OutputNNZ <= 0 {
			t.Errorf("chosen %s (output nnz %d) is not a measured candidate", d.Chosen, d.OutputNNZ)
		}
		for c := range d.Measured {
			if !spgemm.Supported(c) {
				t.Errorf("impossible candidate measured: %v", c)
			}
		}
		return len(d.Measured), nil
	}},
}

// chaos runs body once per scheduler with the failpoint spec armed.
func chaos(t *testing.T, spec string, body func(t *testing.T, choose chaosChoose)) {
	for _, sch := range chaosSchedulers {
		t.Run(sch.name, func(t *testing.T) {
			arm(t, spec)
			body(t, sch.choose)
		})
	}
}

// TestChaosChooseExhaustedRetriesSkipsCandidate: a persistent failure burns
// one candidate's whole retry budget; the decision must come from the other
// candidates, not abort.
func TestChaosChooseExhaustedRetriesSkipsCandidate(t *testing.T) {
	// 3 fires = 1 attempt + 2 retries: exactly the first candidate's budget.
	chaos(t, "core.measure.err=1:3", func(t *testing.T, choose chaosChoose) {
		measured, err := choose(t, 3, nil)
		if err != nil {
			t.Fatalf("decision failed: %v", err)
		}
		if measured != 2 {
			t.Fatalf("measured %d candidates, want 2 (first skipped)", measured)
		}
	})
}

// TestChaosChooseErrorsWhenEveryCandidateFails: with the error failpoint
// always on, every candidate exhausts its retries and ChooseContext must
// return the transient error — typed, so serving layers can degrade.
func TestChaosChooseErrorsWhenEveryCandidateFails(t *testing.T) {
	chaos(t, "core.measure.err=1", func(t *testing.T, choose chaosChoose) {
		_, err := choose(t, 2, nil)
		if err == nil {
			t.Fatal("decision succeeded with measurement hard-down")
		}
		if !errors.Is(err, fault.ErrInjected) || !IsTransient(err) {
			t.Fatalf("error %v lost the injected/transient classification", err)
		}
	})
}

// TestChaosKernelPanicSurfacesAsError: a measurement kernel that panics on
// every candidate must surface as a *KernelPanicError from Choose — an
// error, not a process crash.
func TestChaosKernelPanicSurfacesAsError(t *testing.T) {
	chaos(t, "core.measure.panic=1", func(t *testing.T, choose chaosChoose) {
		_, err := choose(t, 2, nil)
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("err = %v, want *KernelPanicError", err)
		}
		if IsTransient(err) {
			t.Fatal("kernel panics must not be classified transient")
		}
	})
}

// TestChaosWorkerPanicIsolatedToOneCandidate: a single injected panic inside
// pooled kernel dispatch kills one candidate's measurement; the pool
// re-raises it on the submitter, measure converts it to an error, and the
// decision still comes back from the surviving candidates.
func TestChaosWorkerPanicIsolatedToOneCandidate(t *testing.T) {
	chaos(t, "exec.dispatch.panic=1:1", func(t *testing.T, choose chaosChoose) {
		ex := exec.New(4, exec.Static)
		defer ex.Close()
		measured, err := choose(t, 3, ex)
		if err != nil {
			t.Fatalf("worker panic took down the decision: %v", err)
		}
		if measured != 2 {
			t.Fatalf("measured %d candidates, want 2 (the panicked one skipped)", measured)
		}
	})
}

// TestChaosTimerSkewStillPicksAFormat: multiplicative timer skew corrupts
// the measured numbers but the decision machinery must stay well-formed.
func TestChaosTimerSkewStillPicksAFormat(t *testing.T) {
	arm(t, "core.measure.skew=100@0.5;core.measure.perturb=0.3")
	b := buildRandom(t, 150, 60, 0.2, 3)
	s := New(Config{Policy: Empirical})
	d, err := s.Choose(b)
	if err != nil {
		t.Fatal(err)
	}
	formats := map[sparse.Format]bool{}
	for c, dur := range d.Measured {
		formats[c.Format] = true
		if dur < 0 {
			t.Fatalf("%v measured negative time %v", c, dur)
		}
	}
	if len(formats) != 5 {
		t.Fatalf("measured %d formats, want 5", len(formats))
	}
}

// TestChaosBuildFaultFallsThrough: injected candidate-build failures behave
// like unbuildable formats — skipped, with the decision served by the rest.
func TestChaosBuildFaultFallsThrough(t *testing.T) {
	chaos(t, "core.build.err=1:1", func(t *testing.T, choose chaosChoose) {
		measured, err := choose(t, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if measured != 2 {
			t.Fatalf("measured %d candidates, want 2 after one injected build failure", measured)
		}
	})
}

// BenchmarkChooseFaultsOff is the fault-layer overhead guard: with no
// registry enabled every failpoint is a single atomic nil-check, so this
// must match the pre-fault-layer Choose numbers.
func BenchmarkChooseFaultsOff(b *testing.B) {
	fault.Enable(nil)
	builder := buildRandomBench(b, 200, 80, 0.15, 2)
	s := New(Config{Policy: Hybrid})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Choose(builder); err != nil {
			b.Fatal(err)
		}
	}
}

func buildRandomBench(b *testing.B, rows, cols int, density float64, seed int64) *sparse.Builder {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	bu := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				bu.Add(i, j, rng.NormFloat64()+0.2)
			}
		}
	}
	return bu
}
