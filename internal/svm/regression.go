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
// labels (+1…, −1…); the working-set selection, analytic step and
// convergence test are exactly Algorithm 1 on the extended problem, with
// the transformed gradient initialized to +(ε − yᵢ) / −(ε + yᵢ) on the two
// halves.

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
	if cfg.Exec == nil {
		cfg.Exec = exec.Default()
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxIter <= 0 {
		// ε-SVR needs far more SMO iterations than classification: with a
		// tight tube most points sit near a boundary, so progress per
		// two-variable step is small.
		cfg.MaxIter = 200*2*rows + 10000
	}
	s := newSVRSolver(x, y, cfg)
	stats := s.run()
	stats.TotalTime = time.Since(start)
	model := s.buildModel()
	stats.NumSV = len(model.SVs)
	return model, stats, nil
}

// newSVRSolver sets up the extended problem at β = 0 for validated inputs
// and a cfg with its defaults filled in.
func newSVRSolver(x sparse.Matrix, y []float64, cfg RegressionConfig) *svrSolver {
	rows, _ := x.Dims()
	n2 := 2 * rows
	s := &svrSolver{
		kernels: newKernels(x, cfg.rows, cfg.Kernel, cfg.Exec, cfg.chosen, cfg.CacheRows, false),
		cfg:     cfg,
		n:       rows,
		alpha:   make([]float64, n2),
		f:       make([]float64, n2),
		yext:    make([]float64, n2),
	}
	// f is the Keerthi-transformed gradient f_e = y_e·(Q̄β + p)_e; at β = 0
	// that is y_e·p_e: +(ε − yᵢ) on the α half, −(ε + yᵢ) on the α* half.
	for i := 0; i < rows; i++ {
		s.yext[i] = 1
		s.yext[rows+i] = -1
		s.f[i] = cfg.Epsilon - y[i]
		s.f[rows+i] = -(cfg.Epsilon + y[i])
	}
	return s
}

// svrSolver runs SMO on the 2n-variable extended problem. Extended index
// e maps to sample e%n; the extended kernel is Q[e][g] =
// y_e·y_g·K(e%n, g%n) folded into the update coefficients, so only
// base-kernel rows (length n) are ever computed — the same two SMSVs.
type svrSolver struct {
	kernels // kHigh is K(X_{high%n}, ·), length n
	cfg     RegressionConfig
	n       int
	alpha   []float64 // β over [0, 2n)
	f       []float64
	yext    []float64
	bHigh   float64
	bLow    float64

	// Per-iteration loop state, bound by run: see solver.
	scan     sweep
	ch, cl   float64
	selectFn func(w int)
	updateFn func(lo, hi int)
}

func (s *svrSolver) inHigh(e int) bool {
	a, ye := s.alpha[e], s.yext[e]
	return (a > 0 && a < s.cfg.C) || (ye > 0 && a == 0) || (ye < 0 && a == s.cfg.C)
}

func (s *svrSolver) inLow(e int) bool {
	a, ye := s.alpha[e], s.yext[e]
	return (a > 0 && a < s.cfg.C) || (ye > 0 && a == s.cfg.C) || (ye < 0 && a == 0)
}

func (s *svrSolver) selectWorkingSet() (high, low int, ok bool) {
	b := s.scan.run(2*s.n, s.selectFn)
	if b.minIdx < 0 || b.maxIdx < 0 {
		return 0, 0, false
	}
	s.bHigh, s.bLow = b.minVal, b.maxVal
	return b.minIdx, b.maxIdx, true
}

func (s *svrSolver) selectPart(w int) {
	lo, hi := s.scan.span(w)
	b := noBest
	for e := lo; e < hi; e++ {
		b.offer(e, s.f[e], s.inHigh(e), s.inLow(e))
	}
	s.scan.partial[w] = b
}

// updateRange applies Δf to samples [lo, hi). Δf_e = y_e·ΔG_e with ΔG_e =
// y_e·(y_h·K(e%n,h%n)·Δβ_h + y_l·K(e%n,l%n)·Δβ_l): the y_e² cancels, so BOTH
// halves of the extended vector receive the same delta, and one base kernel
// row serves them both.
func (s *svrSolver) updateRange(lo, hi int) {
	ch, cl, n := s.ch, s.cl, s.n
	for i := lo; i < hi; i++ {
		delta := ch*s.kHigh[i] + cl*s.kLow[i]
		s.f[i] += delta
		s.f[n+i] += delta
	}
}

func (s *svrSolver) run() Stats {
	var st Stats
	// Bound once per run: a method value made per iteration is a heap
	// object per iteration.
	s.scan.ex = s.cfg.Exec
	s.selectFn, s.updateFn = s.selectPart, s.updateRange
	high, low, ok := s.selectWorkingSet()
	if !ok {
		return st
	}
	for ; st.Iterations < s.cfg.MaxIter; st.Iterations++ {
		if s.bLow <= s.bHigh+2*s.cfg.Tol {
			st.Converged = true
			break
		}
		t0 := time.Now()
		s.rows(high%s.n, low%s.n)
		st.KernelTime += time.Since(t0)
		// The feasible direction (Δβ_l = y_l·t, Δβ_h = −y_h·t) gives the
		// curvature dᵀQ̄d = K_hh + K_ll − 2·K_hl: the y factors square away,
		// exactly as in the classification solver.
		kHH := s.kHigh[high%s.n]
		kLL := s.kLow[low%s.n]
		kHL := s.kHigh[low%s.n]
		eta := kHH + kLL - 2*kHL
		yl, yh := s.yext[low], s.yext[high]
		dh, dl := pairStep(eta, yh, yl, s.bHigh, s.bLow, s.alpha[high], s.alpha[low], s.cfg.C)
		s.alpha[low] += dl
		s.alpha[high] += dh
		if dh == 0 && dl == 0 {
			if high, low, ok = s.selectWorkingSet(); !ok {
				break
			}
			continue
		}
		s.ch = dh * yh
		s.cl = dl * yl
		s.cfg.Exec.ForElements(s.n, s.updateFn)
		if high, low, ok = s.selectWorkingSet(); !ok {
			break
		}
	}
	return st
}

func (s *svrSolver) buildModel() *RegressionModel {
	m := &RegressionModel{
		Kernel: s.cfg.Kernel,
		B:      -(s.bHigh + s.bLow) / 2,
	}
	// αᵢ − αᵢ* per sample.
	m.SVs, m.Coef = supportVectors(s.src, s.n, func(i int) float64 { return s.alpha[i] - s.alpha[s.n+i] })
	return m
}
