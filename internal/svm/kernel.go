// Package svm implements Support Vector Machine training with the
// Sequential Minimal Optimization algorithm of the paper's Algorithm 1,
// built on the layout-scheduled sparse kernels: each SMO iteration performs
// two sparse-matrix × sparse-vector products (X·X_high and X·X_low), so the
// storage format chosen by internal/core directly sets the iteration cost.
package svm

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/sparse"
)

// KernelType selects one of the paper's Table I kernel functions.
type KernelType int

const (
	// Linear is K(Xi, Xj) = Xi·Xj.
	Linear KernelType = iota
	// Polynomial is K(Xi, Xj) = (a·Xi·Xj + r)^d.
	Polynomial
	// Gaussian is K(Xi, Xj) = exp(−γ‖Xi−Xj‖²).
	Gaussian
	// Sigmoid is K(Xi, Xj) = tanh(a·Xi·Xj + r).
	Sigmoid
)

// String returns the kernel name.
func (k KernelType) String() string {
	switch k {
	case Linear:
		return "linear"
	case Polynomial:
		return "polynomial"
	case Gaussian:
		return "gaussian"
	case Sigmoid:
		return "sigmoid"
	default:
		return "unknown"
	}
}

// KernelParams bundles a kernel type with its constants, using the paper's
// Table I symbols: a and r are the polynomial/sigmoid scale and offset, d
// the polynomial degree, γ the Gaussian width.
type KernelParams struct {
	Type   KernelType
	A      float64 // a in (a·XiᵀXj + r)^d and tanh(a·XiᵀXj + r)
	R      float64 // r, the offset
	Degree int     // d, the polynomial degree
	Gamma  float64 // γ, the Gaussian width
}

// DefaultGaussian returns a Gaussian kernel with γ = 1/numFeatures, the
// LIBSVM default.
func DefaultGaussian(numFeatures int) KernelParams {
	g := 1.0
	if numFeatures > 0 {
		g = 1.0 / float64(numFeatures)
	}
	return KernelParams{Type: Gaussian, Gamma: g}
}

// Validate rejects parameter combinations that break the math.
func (p KernelParams) Validate() error {
	switch p.Type {
	case Linear, Sigmoid:
		return nil
	case Polynomial:
		if p.Degree < 1 {
			return fmt.Errorf("svm: polynomial kernel needs degree >= 1, got %d", p.Degree)
		}
		return nil
	case Gaussian:
		if p.Gamma <= 0 {
			return fmt.Errorf("svm: gaussian kernel needs gamma > 0, got %v", p.Gamma)
		}
		return nil
	default:
		return fmt.Errorf("svm: unknown kernel type %d", int(p.Type))
	}
}

// FromDot maps a raw dot product Xi·Xj to the kernel value, given the
// squared norms of both vectors (only used by Gaussian). Exposed so other
// SVM implementations (e.g. the reference baseline) can share the Table I
// transforms.
func (p KernelParams) FromDot(dot, normSqI, normSqJ float64) float64 {
	switch p.Type {
	case Linear:
		return dot
	case Polynomial:
		return intPow(p.A*dot+p.R, p.Degree)
	case Gaussian:
		d2 := normSqI + normSqJ - 2*dot
		if d2 < 0 {
			d2 = 0
		}
		return math.Exp(-p.Gamma * d2)
	case Sigmoid:
		return math.Tanh(p.A*dot + p.R)
	default:
		return math.NaN()
	}
}

// rowTransform applies the pointwise Table I transform to kernel rows. A
// solver makes one and keeps it: the loop body is bound once and reads its
// operands from the struct, so transforming a row allocates nothing.
type rowTransform struct {
	p      KernelParams
	dst    []float64
	normSq []float64
	nr     float64
	body   func(lo, hi int)
}

// newRowTransform returns nil for the linear kernel, whose transform is the
// identity: apply on nil does nothing.
func newRowTransform(p KernelParams) *rowTransform {
	if p.Type == Linear {
		return nil
	}
	t := &rowTransform{p: p}
	t.body = t.rows
	return t
}

// apply transforms dst in place under ex: on entry dst[i] is the raw dot
// product X_r·X_i of some row r with row i, on return K(X_r, X_i); normSq[i]
// and nr are ‖X_i‖² and ‖X_r‖², read by the Gaussian kernel alone — normSq
// may be nil for the others.
func (t *rowTransform) apply(ex *exec.Exec, dst, normSq []float64, nr float64) {
	if t == nil {
		return
	}
	t.dst, t.normSq, t.nr = dst, normSq, nr
	ex.ForRange(len(dst), t.body)
}

func (t *rowTransform) rows(lo, hi int) {
	if t.normSq == nil {
		for i := lo; i < hi; i++ {
			t.dst[i] = t.p.FromDot(t.dst[i], 0, 0)
		}
		return
	}
	for i := lo; i < hi; i++ {
		t.dst[i] = t.p.FromDot(t.dst[i], t.normSq[i], t.nr)
	}
}

// Eval computes K(v, w) directly from two sparse vectors.
func (p KernelParams) Eval(v, w sparse.Vector) float64 {
	return p.FromDot(v.Dot(w), v.Norm2Sq(), w.Norm2Sq())
}

// intPow computes x^d for small positive integer d by repeated squaring.
func intPow(x float64, d int) float64 {
	result := 1.0
	for d > 0 {
		if d&1 == 1 {
			result *= x
		}
		x *= x
		d >>= 1
	}
	return result
}
