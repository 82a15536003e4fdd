package svm

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
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

// TestRegressionObjectiveBruteForce: an ε-SVR run's Stats.Objective is the
// dual −(½βᵀQ̄β + pᵀβ) at the β the solver reached, recomputed from scratch
// over the extended problem (Q̄[e][g] = y_e·y_g·K(X_{e mod n}, X_{g mod n}),
// p_e = ε − y_e·t_{e mod n}), to 1e-9 relative — linear and Gaussian, at
// several C and ε, converged and stopped by the iteration cap.
func TestRegressionObjectiveBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 0; k < 24; k++ {
		n, cols := 8+rng.Intn(24), 1+rng.Intn(6)
		b := sparse.NewBuilder(n, cols)
		target := make([]float64, n)
		for i := range target {
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.6 {
					b.Add(i, j, rng.NormFloat64())
				}
			}
			target[i] = rng.NormFloat64()
		}
		m := b.MustBuild(sparse.CSR)
		cfg := RegressionConfig{C: []float64{0.1, 1, 10}[k%3], Epsilon: []float64{0, 0.05, 0.3, 1}[k%4]}
		if k%2 == 1 {
			cfg.Kernel = KernelParams{Type: Gaussian, Gamma: 0.5}
		}
		if k%6 >= 3 {
			cfg.MaxIter = 1 + k // stopped short of convergence
		}
		s := newRegressionSolver(m, target, cfg)
		s.run()
		rows := make([]sparse.Vector, n)
		for i := range rows {
			rows[i] = m.RowTo(sparse.Vector{}, i).Clone()
		}
		var quad, lin float64
		for e, be := range s.alpha {
			lin += be * (cfg.epsilon() - s.y[e]*target[e%n])
			for g, bg := range s.alpha {
				quad += be * bg * s.y[e] * s.y[g] * cfg.Kernel.Eval(rows[e%n], rows[g%n])
			}
		}
		want := -(0.5*quad + lin)
		_, st, err := TrainRegression(m, target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want <= 0 || math.Abs(st.Objective-want) > 1e-9*want {
			t.Errorf("problem %d (%d rows, C %v, ε %v, %v, cap %d): Stats.Objective %v, brute force %v",
				k, n, cfg.C, cfg.epsilon(), cfg.Kernel.Type, cfg.MaxIter, st.Objective, want)
		}
	}
}

// regressionTrajectory is trajectory for ε-SVR: the iteration count, the
// coefficients' hash, B and the objective's bits.
type regressionTrajectory struct {
	iters        int
	coef, b, obj uint64
}

// TestRegressionTrajectoriesMatchParent pins ε-SVR's runs to the bit: the
// iterations, coefficients, B and objective that the solver reached when
// these fingerprints were recorded, on allocProblem's targets at the default
// ε = 0.1. At C = 0.1 every kernel converges within 500 iterations; at C = 1
// the linear run needs 7 282, so a cap of 1 000 stops it, and the Gaussian
// one 249. Every basic format and the column candidate, at 1 and 2 workers,
// must give the same fingerprint (DESIGN §6), so a mismatch is a changed
// trajectory, not a flake.
//
// The fingerprints were recorded once more when ε-SVR moved to second-order
// selection, which changes which pair every iteration takes. They had held
// bit for bit while ε-SVR moved from a loop of its own onto solver.run.
// Under first-order selection the linear C = 1 run converged in 7 465
// iterations with B 0x3fa264265124525e, the Gaussian one in 290 with B
// 0xbfcb56147f22a41a. The objective joined the fingerprint when
// TrainRegression began to report it; the other three fields did not move.
func TestRegressionTrajectoriesMatchParent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are recorded on amd64; other architectures may fuse multiply-adds")
	}
	b, _, target := allocProblem(t)
	configs := map[string]RegressionConfig{
		"linear":    {},
		"gaussian":  {Kernel: KernelParams{Type: Gaussian, Gamma: 0.05}},
		"cacheRows": {CacheRows: 16},
	}
	want := []struct {
		config  string
		c       float64
		maxIter int
		regressionTrajectory
	}{
		{"linear", 0.1, 100, regressionTrajectory{100, 0x1187aa5c83d45b3b, 0x3f8728fc6593ca20, 0x4031fa051f014e88}},
		{"linear", 0.1, 1000, regressionTrajectory{457, 0x96f5cef832632654, 0x3f647094044af3a0, 0x4033c39c0a1eabfb}},
		{"linear", 0.1, 0, regressionTrajectory{457, 0x96f5cef832632654, 0x3f647094044af3a0, 0x4033c39c0a1eabfb}},
		{"linear", 1, 100, regressionTrajectory{100, 0xb2c6c7245145e416, 0x3fbf5d4336a5b990, 0x4056231bb296d7c4}},
		{"linear", 1, 1000, regressionTrajectory{1000, 0xafc6cdd9f59138f6, 0x3fbd8c536eadf516, 0x4068029376007141}},
		{"linear", 1, 0, regressionTrajectory{7282, 0x4b9ada81d43fa007, 0x3fa2418aac6c74e2, 0x40682f39737e6e30}},
		{"gaussian", 0.1, 100, regressionTrajectory{100, 0x33c6850837ddfcb5, 0xbfaa6cbffaa24f00, 0x4033d5a12c675fae}},
		{"gaussian", 0.1, 1000, regressionTrajectory{145, 0x12ca56db501b677a, 0xbfba99cf7a0507e0, 0x4034f8ee20630ffd}},
		{"gaussian", 0.1, 0, regressionTrajectory{145, 0x12ca56db501b677a, 0xbfba99cf7a0507e0, 0x4034f8ee20630ffd}},
		{"gaussian", 1, 100, regressionTrajectory{100, 0x1cb8e491d5cc4d7d, 0xbfc907f530f11b37, 0x4065a1a1965e500f}},
		{"gaussian", 1, 1000, regressionTrajectory{249, 0x1880042de093abc0, 0xbfcb48a40cfa1b2c, 0x406688e967ee6014}},
		{"gaussian", 1, 0, regressionTrajectory{249, 0x1880042de093abc0, 0xbfcb48a40cfa1b2c, 0x406688e967ee6014}},
		{"cacheRows", 0.1, 100, regressionTrajectory{100, 0x1187aa5c83d45b3b, 0x3f8728fc6593ca20, 0x4031fa051f014e88}},
		{"cacheRows", 0.1, 1000, regressionTrajectory{457, 0x96f5cef832632654, 0x3f647094044af3a0, 0x4033c39c0a1eabfb}},
		{"cacheRows", 0.1, 0, regressionTrajectory{457, 0x96f5cef832632654, 0x3f647094044af3a0, 0x4033c39c0a1eabfb}},
		{"cacheRows", 1, 100, regressionTrajectory{100, 0xb2c6c7245145e416, 0x3fbf5d4336a5b990, 0x4056231bb296d7c4}},
		{"cacheRows", 1, 1000, regressionTrajectory{1000, 0xafc6cdd9f59138f6, 0x3fbd8c536eadf516, 0x4068029376007141}},
		{"cacheRows", 1, 0, regressionTrajectory{7282, 0x4b9ada81d43fa007, 0x3fa2418aac6c74e2, 0x40682f39737e6e30}},
	}
	execs := []*exec.Exec{texec(t, 1), texec(t, 2)}
	layouts := trainLayouts(b)
	if testing.Short() {
		layouts = layouts[:1] // make test-race: one layout is enough for the detector
	}
	for _, l := range layouts {
		for _, w := range want {
			for _, ex := range execs {
				cfg := configs[w.config]
				cfg.C, cfg.MaxIter, cfg.Exec, cfg.rows, cfg.chosen = w.c, w.maxIter, ex, l.rows, l.chosen
				model, st, err := TrainRegression(l.m, target, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := regressionTrajectory{st.Iterations, coefHash(model.Coef), math.Float64bits(model.B), math.Float64bits(st.Objective)}
				if got != w.regressionTrajectory {
					t.Errorf("%s, %s, C %v, cap %d, %d workers: %#x, want %#x", l.name, w.config, w.c, w.maxIter, ex.Workers(), got, w.regressionTrajectory)
				}
			}
		}
	}
}
