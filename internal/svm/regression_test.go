package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

// mseOf is the mean squared error of m's predictions on the rows of x.
func mseOf(m *RegressionModel, x sparse.Matrix, y []float64) float64 {
	pred := make([]float64, len(y))
	var v sparse.Vector
	for i := range pred {
		v = x.RowTo(v, i)
		pred[i] = m.Predict(v)
	}
	return metrics.MSE(y, pred)
}

// linearTargets builds y = w·x + b0 + noise over random sparse-ish inputs.
func linearTargets(n, dim int, b0, noise float64, seed int64) (sparse.Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	b := sparse.NewBuilder(n, dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var dot float64
		for j := 0; j < dim; j++ {
			x := rng.NormFloat64()
			b.Add(i, j, x)
			dot += w[j] * x
		}
		y[i] = dot + b0 + rng.NormFloat64()*noise
	}
	return b.MustBuild(sparse.CSR), y
}

func TestRegressionLinearFunction(t *testing.T) {
	m, y := linearTargets(150, 4, 0.7, 0.01, 1)
	model, stats, err := TrainRegression(m, y, RegressionConfig{
		C: 10, Epsilon: 0.05, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("no convergence in %d iterations", stats.Iterations)
	}
	mse := mseOf(model, m, y)
	// ε=0.05 tube: errors should be around ε², far below target variance.
	if mse > 0.02 {
		t.Fatalf("MSE %v on near-noiseless linear data", mse)
	}
	// The intercept must be recovered: mean residual ~ 0.
	var mean float64
	var v sparse.Vector
	for i := 0; i < 150; i++ {
		v = m.RowTo(v, i)
		mean += model.Predict(v) - y[i]
	}
	mean /= 150
	if math.Abs(mean) > 0.05 {
		t.Fatalf("systematic bias %v — offset sign wrong?", mean)
	}
}

func TestRegressionSineWithGaussianKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	b := sparse.NewBuilder(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := rng.Float64()*6 - 3
		b.Add(i, 0, x)
		y[i] = math.Sin(x)
	}
	m := b.MustBuild(sparse.CSR)
	model, stats, err := TrainRegression(m, y, RegressionConfig{
		C: 50, Epsilon: 0.02, Kernel: KernelParams{Type: Gaussian, Gamma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("no convergence in %d iterations", stats.Iterations)
	}
	if mse := mseOf(model, m, y); mse > 0.01 {
		t.Fatalf("sine MSE %v", mse)
	}
	// A linear kernel cannot fit sine on [-3,3]; confirm the gaussian is
	// doing real work.
	linModel, _, err := TrainRegression(m, y, RegressionConfig{
		C: 50, Epsilon: 0.02, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if linMSE := mseOf(linModel, m, y); linMSE < 0.05 {
		t.Fatalf("linear kernel suspiciously good on sine: %v", linMSE)
	}
}

func TestRegressionEpsilonTubeSparsifiesSVs(t *testing.T) {
	m, y := linearTargets(120, 3, 0, 0.01, 3)
	tight, _, err := TrainRegression(m, y, RegressionConfig{
		C: 10, Epsilon: 0.01, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.SVs) == 0 {
		t.Fatal("tight tube produced no support vectors")
	}
	// A tube wider than the whole target range leaves every point inside
	// it: the optimum is β = 0, i.e. no support vectors at all.
	var maxAbs float64
	for _, t := range y {
		if a := math.Abs(t); a > maxAbs {
			maxAbs = a
		}
	}
	wide, _, err := TrainRegression(m, y, RegressionConfig{
		C: 10, Epsilon: 2 * maxAbs, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.SVs) != 0 {
		t.Fatalf("tube wider than the data still produced %d SVs", len(wide.SVs))
	}
}

func TestRegressionSameAcrossFormats(t *testing.T) {
	mCSR, y := linearTargets(80, 3, 0.2, 0.05, 4)
	b := sparse.NewBuilder(80, 3)
	var v sparse.Vector
	for i := 0; i < 80; i++ {
		v = mCSR.RowTo(v, i)
		b.AddRow(i, v)
	}
	cfg := RegressionConfig{C: 5, Epsilon: 0.05, Kernel: KernelParams{Type: Linear}}
	ref, refStats, err := TrainRegression(mCSR, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sparse.BasicFormats {
		mat, err := b.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		model, stats, err := TrainRegression(mat, y, cfg)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if stats.Iterations != refStats.Iterations {
			t.Errorf("%v: %d iterations, want %d", f, stats.Iterations, refStats.Iterations)
		}
		if math.Abs(model.B-ref.B) > 1e-9 {
			t.Errorf("%v: offset %v, want %v", f, model.B, ref.B)
		}
	}
}

func TestRegressionRejectsBadInput(t *testing.T) {
	m, y := linearTargets(20, 2, 0, 0.1, 5)
	if _, _, err := TrainRegression(m, y[:5], RegressionConfig{Kernel: KernelParams{Type: Linear}}); err == nil {
		t.Fatal("target mismatch accepted")
	}
	bad := append([]float64{}, y...)
	bad[0] = math.NaN()
	if _, _, err := TrainRegression(m, bad, RegressionConfig{Kernel: KernelParams{Type: Linear}}); err == nil {
		t.Fatal("NaN target accepted")
	}
	if _, _, err := TrainRegression(m, y, RegressionConfig{Kernel: KernelParams{Type: Gaussian}}); err == nil {
		t.Fatal("gamma=0 accepted")
	}
}

func TestRegressionMaxIterHonored(t *testing.T) {
	m, y := linearTargets(100, 3, 0, 1.0, 6)
	_, stats, err := TrainRegression(m, y, RegressionConfig{
		MaxIter: 7, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations > 7 {
		t.Fatalf("%d iterations with MaxIter=7", stats.Iterations)
	}
}

func TestRegressionAdaptive(t *testing.T) {
	m, y := linearTargets(100, 3, 0.3, 0.02, 9)
	b := sparse.NewBuilder(100, 3)
	var v sparse.Vector
	for i := 0; i < 100; i++ {
		v = m.RowTo(v, i)
		b.AddRow(i, v)
	}
	sched := core.New(core.Config{Policy: core.RuleBased})
	res, err := TrainRegressionAdaptive(b, y, sched, RegressionConfig{
		C: 10, Epsilon: 0.05, Kernel: KernelParams{Type: Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision == nil || res.Model == nil {
		t.Fatal("missing decision or model")
	}
	if mse := mseOf(res.Model, res.Decision.Matrix, y); mse > 0.05 {
		t.Fatalf("adaptive SVR MSE %v", mse)
	}
}
