package dataset

import (
	"math/rand"

	"repro/internal/sparse"
)

// PlantedLabels assigns ±1 labels from a random planted hyperplane through
// the matrix's rows, with the given fraction of labels flipped as noise.
// The result is a linearly separable (up to noise) binary problem, so SVM
// training on generated clones converges the way it does on the paper's
// real classification datasets. Both classes are guaranteed non-empty.
func PlantedLabels(m sparse.Matrix, noise float64, rng *rand.Rand) []float64 {
	rows, cols := m.Dims()
	w := make([]float64, cols)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	y := make([]float64, rows)
	var v sparse.Vector
	var pos, neg int
	for i := 0; i < rows; i++ {
		v = m.RowTo(v, i)
		score := v.DotDense(w)
		if score >= 0 {
			y[i] = 1
			pos++
		} else {
			y[i] = -1
			neg++
		}
		if noise > 0 && rng.Float64() < noise {
			y[i] = -y[i]
		}
	}
	// Degenerate single-class splits break SMO's initial working-set pick;
	// force at least one sample of each class.
	if pos == 0 && rows > 0 {
		y[0] = 1
	}
	if neg == 0 && rows > 1 {
		y[rows-1] = -1
	}
	return y
}
