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

// transformRow applies the pointwise Table I transform in place under ex:
// on entry dst[i] is the raw dot product X_r·X_i of some row r with row i,
// on return K(X_r, X_i); normSq[i] and nr are ‖X_i‖² and ‖X_r‖². Linear is
// the identity and dispatches nothing.
func (p KernelParams) transformRow(ex *exec.Exec, dst, normSq []float64, nr float64) {
	if p.Type == Linear {
		return
	}
	ex.ForRange(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = p.FromDot(dst[i], normSq[i], nr)
		}
	})
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
