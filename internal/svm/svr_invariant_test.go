package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// TestSVRMaintainedGradientExact verifies ε-SVR's incrementally maintained
// transformed gradient f against a from-scratch O(n²) recomputation at the
// final iterate — the invariant whose violation silently degrades solution
// quality.
func TestSVRMaintainedGradientExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 50
	b := sparse.NewBuilder(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()*6 - 3
		b.Add(i, 0, x)
		b.Add(i, 1, rng.NormFloat64())
		y[i] = math.Sin(x) + rng.NormFloat64()*0.1
	}
	m := b.MustBuild(sparse.CSR)
	cfg := RegressionConfig{
		C: 20, Epsilon: 0.05, Tol: 1e-3, MaxIter: 5000,
		Kernel: KernelParams{Type: Gaussian, Gamma: 1},
	}
	rows, _ := m.Dims()
	n2 := 2 * rows
	s := newRegressionSolver(m, y, cfg)
	s.run()

	var rowVecs []sparse.Vector
	for i := 0; i < rows; i++ {
		rowVecs = append(rowVecs, m.RowTo(sparse.Vector{}, i).Clone())
	}
	for e := 0; e < n2; e++ {
		var qb float64
		for g := 0; g < n2; g++ {
			if s.alpha[g] == 0 {
				continue
			}
			qb += s.y[e] * s.y[g] * cfg.Kernel.Eval(rowVecs[e%rows], rowVecs[g%rows]) * s.alpha[g]
		}
		p := cfg.Epsilon - y[e%rows]
		if e >= rows {
			p = cfg.Epsilon + y[e-rows]
		}
		want := s.y[e] * (qb + p)
		if d := math.Abs(want - s.f[e]); d > 1e-9 {
			t.Fatalf("f[%d] drifted by %v (maintained %v, recomputed %v)", e, d, s.f[e], want)
		}
	}
	// Equality constraint and box must hold exactly.
	var c float64
	for e := 0; e < n2; e++ {
		c += s.y[e] * s.alpha[e]
		if s.alpha[e] < -1e-12 || s.alpha[e] > cfg.C+1e-12 {
			t.Fatalf("beta[%d] = %v outside box [0,%v]", e, s.alpha[e], cfg.C)
		}
	}
	if math.Abs(c) > 1e-9 {
		t.Fatalf("Σ y·β = %v, want 0", c)
	}
}
