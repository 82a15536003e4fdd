package sparse

import (
	"fmt"
	"math"
)

// Vector is a sparse vector: parallel slices of ascending column indices
// and their values, plus the logical dimension. The zero Vector is an empty
// vector of dimension 0.
//
// In SMO each iteration multiplies the data matrix by two of its own rows
// (X·X_high and X·X_low); those rows are Vectors.
type Vector struct {
	// Index holds the positions of the nonzero entries in ascending order.
	Index []int32
	// Value holds the entry at the matching Index position.
	Value []float64
	// Dim is the logical length of the vector.
	Dim int
}

// NewVectorDense builds a sparse Vector from a dense slice, dropping zeros.
func NewVectorDense(dense []float64) Vector {
	v := Vector{Dim: len(dense)}
	for i, x := range dense {
		if x != 0 {
			v.Index = append(v.Index, int32(i))
			v.Value = append(v.Value, x)
		}
	}
	return v
}

// NNZ returns the number of stored entries.
func (v Vector) NNZ() int { return len(v.Index) }

// Reset truncates the vector in place so it can be reused by RowTo without
// reallocating, keeping capacity.
func (v Vector) Reset(dim int) Vector {
	v.Index = v.Index[:0]
	v.Value = v.Value[:0]
	v.Dim = dim
	return v
}

// Append adds one (index, value) entry; callers must keep indices ascending.
func (v Vector) Append(idx int32, val float64) Vector {
	v.Index = append(v.Index, idx)
	v.Value = append(v.Value, val)
	return v
}

// Dense expands the vector into a freshly allocated dense slice.
func (v Vector) Dense() []float64 {
	out := make([]float64, v.Dim)
	for k, i := range v.Index {
		out[i] = v.Value[k]
	}
	return out
}

// ScatterInto writes the vector's values into scratch (which must have
// length >= Dim) and returns scratch. Use GatherFrom to undo the writes
// cheaply instead of zeroing the whole slice.
func (v Vector) ScatterInto(scratch []float64) []float64 {
	for k, i := range v.Index {
		scratch[i] = v.Value[k]
	}
	return scratch
}

// GatherFrom zeroes exactly the positions this vector scattered into,
// restoring scratch to all-zeros in O(nnz) instead of O(Dim).
func (v Vector) GatherFrom(scratch []float64) {
	for _, i := range v.Index {
		scratch[i] = 0
	}
}

// Dot computes the sparse-sparse dot product v·w by merging the two index
// lists. Both vectors must have ascending indices.
func (v Vector) Dot(w Vector) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(v.Index) && j < len(w.Index) {
		switch {
		case v.Index[i] < w.Index[j]:
			i++
		case v.Index[i] > w.Index[j]:
			j++
		default:
			sum += v.Value[i] * w.Value[j]
			i++
			j++
		}
	}
	return sum
}

// DotDense computes v·x for a dense x of length >= Dim.
func (v Vector) DotDense(x []float64) float64 {
	var sum float64
	for k, i := range v.Index {
		sum += v.Value[k] * x[i]
	}
	return sum
}

// Norm2Sq returns the squared Euclidean norm Σ v_i².
func (v Vector) Norm2Sq() float64 {
	var sum float64
	for _, x := range v.Value {
		sum += x * x
	}
	return sum
}

// Clone returns a deep copy of the vector.
func (v Vector) Clone() Vector {
	out := Vector{
		Index: make([]int32, len(v.Index)),
		Value: make([]float64, len(v.Value)),
		Dim:   v.Dim,
	}
	copy(out.Index, v.Index)
	copy(out.Value, v.Value)
	return out
}

// Validate checks structural invariants: ascending in-range indices,
// matching slice lengths, finite values.
func (v Vector) Validate() error {
	if len(v.Index) != len(v.Value) {
		return fmt.Errorf("sparse: vector index/value length mismatch %d != %d", len(v.Index), len(v.Value))
	}
	prev := int32(-1)
	for k, i := range v.Index {
		if i <= prev {
			return fmt.Errorf("sparse: vector indices not strictly ascending at position %d", k)
		}
		if int(i) >= v.Dim {
			return fmt.Errorf("sparse: vector index %d out of range [0,%d)", i, v.Dim)
		}
		if math.IsNaN(v.Value[k]) || math.IsInf(v.Value[k], 0) {
			return fmt.Errorf("sparse: non-finite value at position %d", k)
		}
		prev = i
	}
	return nil
}
