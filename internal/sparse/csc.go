package sparse

import (
	"sort"

	"repro/internal/exec"
	"repro/internal/parallel"
)

// CSCMatrix is compressed sparse column storage — the column-wise twin of
// CSR that the paper notes is derivable from it (§III-A). Its multiply
// kernel iterates only the columns where x is nonzero, so unlike the other
// formats its SMSV work is Θ(Σ_{j∈nnz(x)} colnnz(j)) rather than the full
// stored-element count; it is included as an extension, not one of the five
// scheduled formats.
type CSCMatrix struct {
	rows, cols int
	ptr        []int64   // len cols+1
	idx        []int32   // len nnz, row indices, ascending within a column
	val        []float64 // len nnz
}

func newCSC(m *CSCMatrix, rows, cols int, base int32, r, c []int32, v []float64) *CSCMatrix {
	if m == nil {
		m = new(CSCMatrix)
	}
	*m = CSCMatrix{
		rows: rows,
		cols: cols,
		ptr:  zeroed(m.ptr, cols+1),
		idx:  reuse(m.idx, len(v)),
		val:  reuse(m.val, len(v)),
	}
	for _, col := range c {
		m.ptr[col+1]++
	}
	for j := 0; j < cols; j++ {
		m.ptr[j+1] += m.ptr[j]
	}
	// Input triplets are row-major sorted, so filling column buckets in
	// order leaves row indices ascending within each column. ptr[j] is
	// column j's fill cursor, which leaves it at column j+1's start: one
	// shift puts every start back.
	for k := range v {
		col := c[k]
		pos := m.ptr[col]
		m.ptr[col]++
		m.idx[pos] = r[k] - base
		m.val[pos] = v[k]
	}
	copy(m.ptr[1:], m.ptr[:cols])
	m.ptr[0] = 0
	return m
}

// Dims returns the matrix dimensions.
func (m *CSCMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSCMatrix) NNZ() int { return len(m.val) }

// Format returns CSC.
func (m *CSCMatrix) Format() Format { return CSC }

// Col returns column j as a zero-copy sparse vector whose Index slice holds
// ascending row positions. The returned slices alias the matrix storage and
// must not be mutated. This is the column-access dual of CSRMatrix.Row and
// what makes CSC the natural A-side format for outer-product SpGEMM.
func (m *CSCMatrix) Col(j int) Vector {
	lo, hi := m.ptr[j], m.ptr[j+1]
	return Vector{Index: m.idx[lo:hi], Value: m.val[lo:hi], Dim: m.rows}
}

// RowTo appends the nonzeros of row i to dst. CSC has no row index, so this
// probes every column with a binary search — O(N log nnz); CSC is built for
// column access, and this cost asymmetry is why it is not in the scheduled
// set for the row-access SMO workload.
func (m *CSCMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	for j := 0; j < m.cols; j++ {
		lo, hi := m.ptr[j], m.ptr[j+1]
		seg := m.idx[lo:hi]
		k := sort.Search(len(seg), func(k int) bool { return seg[k] >= int32(i) })
		if k < len(seg) && seg[k] == int32(i) {
			dst = dst.Append(int32(j), m.val[lo+int64(k)])
		}
	}
	return dst
}

// MulVecSparse computes dst = A·x column-wise: only columns with a nonzero
// x entry are touched. Columns are distributed over the context's workers
// with per-partition partial outputs merged serially, keeping the result
// deterministic.
func (m *CSCMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	for i := range dst {
		dst[i] = 0
	}
	nx := len(x.Index)
	if nx == 0 {
		ex.End(exec.KindCSC, 0, t)
		return
	}
	p := ex.Parts(nx)
	if p == 1 {
		for k, j := range x.Index {
			xv := x.Value[k]
			for q := m.ptr[j]; q < m.ptr[j+1]; q++ {
				dst[m.idx[q]] += m.val[q] * xv
			}
		}
		if ex.Tracking() {
			ex.End(exec.KindCSC, m.touched(x), t)
		}
		return
	}
	partial := make([][]float64, p)
	ex.ForParts(p, func(w int) {
		lo, hi := parallel.SplitRange(nx, p, w)
		acc := make([]float64, m.rows)
		for k := lo; k < hi; k++ {
			j := x.Index[k]
			xv := x.Value[k]
			for q := m.ptr[j]; q < m.ptr[j+1]; q++ {
				acc[m.idx[q]] += m.val[q] * xv
			}
		}
		partial[w] = acc
	})
	for _, acc := range partial {
		for i, a := range acc {
			if a != 0 {
				dst[i] += a
			}
		}
	}
	if ex.Tracking() {
		ex.End(exec.KindCSC, m.touched(x), t)
	}
}

// touched counts the stored elements the CSC kernel actually reads for
// input x — the sum of the touched columns' lengths, since only columns
// with a nonzero x entry are visited. Used only for instrumentation.
func (m *CSCMatrix) touched(x Vector) int64 {
	var n int64
	for _, j := range x.Index {
		n += m.ptr[j+1] - m.ptr[j]
	}
	return n
}

// StoredElements returns 2·nnz + N (value and row-index arrays plus the
// column-pointer array counted as N entries), the CSC analogue of Table
// II's CSR row.
func (m *CSCMatrix) StoredElements() int64 {
	return 2*int64(len(m.val)) + int64(m.cols)
}

// StorageBytes returns the backing array footprint.
func (m *CSCMatrix) StorageBytes() int64 {
	return int64(len(m.ptr))*8 + int64(len(m.idx))*4 + int64(len(m.val))*8
}
