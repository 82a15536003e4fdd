package spgemm

import (
	"math"

	"repro/internal/sparse"
)

// FlopsUpperBound returns the Gustavson multiply count Σ_i Σ_{k∈A(i,:)}
// nnz(B(k,:)) — the exact flop count of the row-wise dataflow and the
// classic upper bound on nnz(C) (tight when no two products land in the
// same output cell). It streams both operands once, so it is cheap enough
// to run per decision as the scheduler's size oracle.
func FlopsUpperBound(a, b sparse.Matrix) int64 {
	_, k := a.Dims()
	// Per-row entry counts of B, with the O(1) fast paths for the formats
	// the candidate space actually uses.
	bn := make([]int64, k)
	switch bm := b.(type) {
	case *sparse.CSRMatrix:
		for i := range bn {
			bn[i] = int64(bm.RowNNZ(i))
		}
	default:
		var buf sparse.Vector
		for i := range bn {
			buf = b.RowTo(buf, i)
			bn[i] = int64(len(buf.Index))
		}
	}
	ar, _ := a.Dims()
	var flops int64
	var buf sparse.Vector
	for i := 0; i < ar; i++ {
		row := rowOf(a, i, &buf)
		for _, kk := range row.Index {
			flops += bn[kk]
		}
	}
	return flops
}

// NNZUpperBound bounds the entry count of C = A·B: the flop bound clamped
// by the dense cell count.
func NNZUpperBound(a, b sparse.Matrix) int64 {
	ar, _ := a.Dims()
	_, bc := b.Dims()
	dense := int64(ar) * int64(bc)
	if f := FlopsUpperBound(a, b); f < dense {
		return f
	}
	return dense
}

// EstimateCost scores a candidate from cheap statistics, for rule-based
// selection and candidate ranking before measurement. aStored/bStored are
// the operands' stored element counts (padding included — this is what
// penalizes ELL on irregular rows), flops the Gustavson multiply bound.
// Units are abstract "element touches"; only the ordering matters.
func EstimateCost(c Candidate, aRows, bCols int, aStored, bStored, flops int64) float64 {
	f := float64(flops)
	switch c.Dataflow {
	case Gustavson:
		// One touch per multiply plus the streamed A row slots (padding
		// included) and per-row accumulator setup.
		return f + float64(aStored) + float64(aRows)
	case OuterProduct:
		// Every multiply emits a triplet that the merge must sort.
		if f < 2 {
			return float64(bStored) + 2
		}
		return f*math.Log2(f) + float64(bStored)
	case InnerProduct:
		// Probes every output cell; each probe walks an intersection.
		return float64(aRows)*float64(bCols) + f
	default:
		return math.Inf(1)
	}
}
