package svm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/exec"
	"repro/internal/sparse"
)

// The paper's background (§II-A) covers regression alongside
// classification: "The data structure of the regression problem is
// identical to that of the classification problem. The only difference is
// that yᵢ ∈ ℝ." ε-SVR shares the SMO structure and therefore the same
// two-SMSV-per-iteration bottleneck, so the layout scheduler applies
// unchanged. The dual has 2n variables β = (α, α*) with the extended
// labels (+1…, −1…), variable e reading row e mod n; the working-set
// selection, analytic step and convergence test are exactly Algorithm 1 on
// the extended problem, with the transformed gradient initialized to
// +(ε − yᵢ) / −(ε + yᵢ) on the two halves. As in LIBSVM, one solver runs
// both: TrainRegression hands the extended problem to the classification
// loop, solver.run.

// RegressionConfig parameterizes ε-SVR training.
type RegressionConfig struct {
	C       float64 // box constraint; 0 means 1
	Epsilon float64 // ε-insensitive tube half-width; 0 means 0.1
	Tol     float64 // KKT tolerance; 0 means 1e-3
	MaxIter int     // 0 means 200·(2n) + 10000
	Kernel  KernelParams
	// Exec is the execution context kernels and reductions run under; nil
	// means exec.Default().
	Exec *exec.Exec
	// CacheRows enables the kernel-row LRU cache, as in classification.
	CacheRows int

	chosen *sparse.Candidate // TrainRegressionAdaptive's, see Config.chosen
	rows   rowSource         // likewise, see Config.rows
}

// RegressionModel predicts real-valued targets:
// g(x) = Σᵢ Coef[i]·K(SVs[i], x) + B.
type RegressionModel struct {
	Kernel KernelParams
	SVs    []sparse.Vector
	Coef   []float64 // (αᵢ − αᵢ*) per support vector
	B      float64
}

// Predict evaluates the regression function on one sample.
func (m *RegressionModel) Predict(x sparse.Vector) float64 {
	var sum float64
	for i := range m.SVs {
		sum += m.Coef[i] * m.Kernel.Eval(m.SVs[i], x)
	}
	return sum + m.B
}

// TrainRegression runs SMO ε-SVR on x with real-valued targets y.
func TrainRegression(x sparse.Matrix, y []float64, cfg RegressionConfig) (*RegressionModel, Stats, error) {
	start := time.Now()
	rows, _ := x.Dims()
	if len(y) != rows {
		return nil, Stats{}, fmt.Errorf("svm: %d targets for %d rows", len(y), rows)
	}
	for i, t := range y {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, Stats{}, fmt.Errorf("svm: non-finite target at row %d", i)
		}
	}
	if err := cfg.Kernel.Validate(); err != nil {
		return nil, Stats{}, err
	}
	s := newRegressionSolver(x, y, cfg)
	stats := s.run()
	stats.TotalTime = time.Since(start)
	stats.Objective = regressionObjective(s, y, cfg.epsilon())
	model := &RegressionModel{
		Kernel: cfg.Kernel,
		B:      -(s.bHigh + s.bLow) / 2,
	}
	// αᵢ − αᵢ* per sample.
	model.SVs, model.Coef = supportVectors(s.src, rows, func(i int) float64 { return s.alpha[i] - s.alpha[rows+i] })
	stats.NumSV = len(model.SVs)
	return model, stats, nil
}

// newRegressionSolver sets up the extended problem at β = 0 for validated
// inputs. f is the Keerthi-transformed gradient f_e = y_e·(Q̄β + p)_e, which
// at β = 0 is y_e·p_e: +(ε − yᵢ) on the α half, −(ε + yᵢ) on the α* half.
// The extended kernel Q̄[e][g] = y_e·y_g·K(X_{e mod n}, X_{g mod n}) folds
// its labels into the update coefficients as classification's does, so the
// products stay the same two base-kernel SMSVs.
func newRegressionSolver(x sparse.Matrix, y []float64, cfg RegressionConfig) *solver {
	rows, _ := x.Dims()
	eps := cfg.epsilon()
	if cfg.MaxIter <= 0 {
		// ε-SVR needs far more SMO iterations than classification: with a
		// tight tube most points sit near a boundary, so progress per
		// two-variable step is small.
		cfg.MaxIter = 200*2*rows + 10000
	}
	yext, f, index := make([]float64, 2*rows), make([]float64, 2*rows), make([]int, 2*rows)
	for i, t := range y {
		yext[i], yext[rows+i] = 1, -1
		f[i], f[rows+i] = eps-t, -(eps + t)
		index[i], index[rows+i] = i, i
	}
	// Second-order selection, as LIBSVM runs for ε-SVR. First-order
	// selection creeps on the extended problem: examples/svr's 240-row sine
	// fit needs 129 626 iterations, past the default cap of 106 000, where
	// second-order converges in 7 725.
	return newSolver(x, Config{
		C: cfg.C, Tol: cfg.Tol, MaxIter: cfg.MaxIter, Kernel: cfg.Kernel, Exec: cfg.Exec,
		CacheRows: cfg.CacheRows, SecondOrder: true, chosen: cfg.chosen, rows: cfg.rows,
	}, yext, f, index)
}

// epsilon is the tube half-width cfg runs with.
func (cfg RegressionConfig) epsilon() float64 {
	if cfg.Epsilon <= 0 {
		return 0.1
	}
	return cfg.Epsilon
}

// regressionObjective is the dual objective of the extended problem at the
// solver's β in the maximisation form Stats reports, −(½βᵀQ̄β + pᵀβ). With
// f = y·(Q̄β + p) and f₀ = y·p, f's value at β = 0, that is
// −½ Σ_e β_e·y_e·(f_e + f₀_e); f₀_e = y_e·ε − y_{e mod n} is rebuilt from the
// targets, +(ε − yᵢ) on the α half and −(ε + yᵢ) on the α* half.
// (Classification's f₀ is −y, where the same sum is solver.objective.)
func regressionObjective(s *solver, y []float64, eps float64) float64 {
	var sum float64
	for e, b := range s.alpha {
		sum += b * s.y[e] * (s.f[e] + s.y[e]*eps - y[e%len(y)])
	}
	return -0.5 * sum
}
