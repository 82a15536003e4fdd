package svm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// checkKKT verifies the Karush-Kuhn-Tucker conditions of the converged
// dual at tolerance tol: with margin m_i = y_i·(decision(x_i)),
//
//	α_i = 0        ⇒ m_i ≥ 1 − tol
//	0 < α_i < C    ⇒ |m_i − 1| ≤ tol
//	α_i = C        ⇒ m_i ≤ 1 + tol
//
// This is the ground-truth optimality statement that does not depend on
// any solver internals.
func checkKKT(t *testing.T, m sparse.Matrix, y []float64, model *Model, c, tol float64) {
	t.Helper()
	// Recover per-sample alphas from the SV set: non-SV rows have α = 0.
	rows, _ := m.Dims()
	alpha := make([]float64, rows)
	var v sparse.Vector
	// Match SVs back to rows by exact content (training preserved order).
	sv := 0
	for i := 0; i < rows && sv < len(model.SVs); i++ {
		v = m.RowTo(v, i)
		if vectorsEqual(v, model.SVs[sv]) {
			alpha[i] = model.Coef[sv] * y[i] // coef = α·y ⇒ α = coef·y
			sv++
		}
	}
	if sv != len(model.SVs) {
		t.Fatalf("could not align %d of %d SVs to rows", len(model.SVs)-sv, len(model.SVs))
	}
	for i := 0; i < rows; i++ {
		v = m.RowTo(v, i)
		margin := y[i] * model.Decision(v)
		a := alpha[i]
		switch {
		case a <= 1e-12:
			if margin < 1-tol {
				t.Fatalf("KKT: row %d has α=0 but margin %v < 1-tol", i, margin)
			}
		case a >= c-1e-12:
			if margin > 1+tol {
				t.Fatalf("KKT: row %d has α=C but margin %v > 1+tol", i, margin)
			}
		default:
			if margin < 1-tol || margin > 1+tol {
				t.Fatalf("KKT: row %d free (α=%v) but margin %v not ≈ 1", i, a, margin)
			}
		}
	}
}

func vectorsEqual(a, b sparse.Vector) bool {
	if len(a.Index) != len(b.Index) {
		return false
	}
	for k := range a.Index {
		if a.Index[k] != b.Index[k] || a.Value[k] != b.Value[k] {
			return false
		}
	}
	return true
}

// TestKKTConditionsQuick trains on random problems across solver variants
// and verifies the KKT conditions of every returned model.
func TestKKTConditionsQuick(t *testing.T) {
	check := func(seed int64, sizeRaw uint8, hard bool) bool {
		n := int(sizeRaw%60) + 30
		sep := 2.5
		if hard {
			sep = 1.0
		}
		b, y := blobs(n, 3, sep, seed)
		m := b.MustBuild(sparse.CSR)
		const c, tol = 1.0, 1e-3
		for _, variant := range []struct {
			name string
			run  func() (*Model, Stats, error)
		}{
			{"plain", func() (*Model, Stats, error) {
				return Train(m, y, Config{C: c, Tol: tol, Kernel: KernelParams{Type: Linear}, MaxIter: 200000})
			}},
			{"wss2", func() (*Model, Stats, error) {
				return Train(m, y, Config{C: c, Tol: tol, Kernel: KernelParams{Type: Linear}, SecondOrder: true, MaxIter: 200000})
			}},
			{"shrinking", func() (*Model, Stats, error) {
				return Train(m, y, Config{C: c, Tol: tol, Kernel: KernelParams{Type: Linear}, Shrinking: true, MaxIter: 200000})
			}},
			{"shrinking+wss2", func() (*Model, Stats, error) {
				return Train(m, y, Config{C: c, Tol: tol, Kernel: KernelParams{Type: Linear}, Shrinking: true, SecondOrder: true, MaxIter: 200000})
			}},
			{"shrinking+cache", func() (*Model, Stats, error) {
				return Train(m, y, Config{C: c, Tol: tol, Kernel: KernelParams{Type: Linear}, Shrinking: true, CacheRows: 8, MaxIter: 200000})
			}},
		} {
			model, stats, err := variant.run()
			if err != nil {
				t.Logf("%s: %v", variant.name, err)
				return false
			}
			if !stats.Converged {
				t.Logf("%s: no convergence (seed %d n %d)", variant.name, seed, n)
				return false
			}
			// The working-set tolerance bounds the KKT slack by ~2·tol
			// plus float noise; 3·tol is a safe envelope.
			checkKKT(t, m, y, model, c, 3*tol+1e-6)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
