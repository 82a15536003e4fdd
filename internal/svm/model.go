package svm

import (
	"repro/internal/exec"
	"repro/internal/sparse"
)

// Model is a trained binary SVM: the support vectors with their signed
// coefficients αᵢyᵢ and the bias b. The decision function is
//
//	f(x) = Σᵢ Coef[i]·K(SVs[i], x) − B
//
// with the sample classified by sign(f(x)).
type Model struct {
	Kernel KernelParams
	SVs    []sparse.Vector
	Coef   []float64 // αᵢ·yᵢ per support vector
	B      float64
}

// Decision evaluates the decision function on one sample.
func (m *Model) Decision(x sparse.Vector) float64 {
	var sum float64
	for i := range m.SVs {
		sum += m.Coef[i] * m.Kernel.Eval(m.SVs[i], x)
	}
	return sum - m.B
}

// Predict classifies one sample into {-1, +1}.
func (m *Model) Predict(x sparse.Vector) float64 { return classOf(m.Decision(x)) }

// classOf is the class of a decision value: +1 from 0 up, −1 below.
func classOf(d float64) float64 {
	if d >= 0 {
		return 1
	}
	return -1
}

// DecisionBatch evaluates the decision function on every row of x in
// parallel.
func (m *Model) DecisionBatch(x sparse.Matrix, ex *exec.Exec) []float64 {
	rows, _ := x.Dims()
	out := make([]float64, rows)
	ex.ForRange(rows, func(lo, hi int) {
		var v sparse.Vector
		for i := lo; i < hi; i++ {
			v = x.RowTo(v, i)
			out[i] = m.Decision(v)
		}
	})
	return out
}

// Accuracy returns the fraction of rows whose predicted class matches y.
func (m *Model) Accuracy(x sparse.Matrix, y []float64, ex *exec.Exec) float64 {
	if len(y) == 0 {
		return 0
	}
	correct := 0
	for i, d := range m.DecisionBatch(x, ex) {
		if classOf(d) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}
