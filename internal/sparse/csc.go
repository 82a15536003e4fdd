package sparse

import (
	"sort"

	"repro/internal/exec"
)

// CSCMatrix is compressed sparse column storage — the column-wise twin of
// CSR that the paper notes is derivable from it (§III-A). Its multiply
// kernel iterates only the columns where x is nonzero, so unlike the other
// formats its SMSV work is Θ(Σ_{j∈nnz(x)} colnnz(j)) rather than the full
// stored-element count. It is scheduled as an extension beside the paper's
// five formats: the column dataflow, candidate CSC/static/fused, whose SMO
// products read only the columns the two working rows touch.
type CSCMatrix struct {
	rows, cols int
	ptr        []int32   // len cols+1; int32 as idx is, since a wide matrix's pointers are much of it
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
// probes every column with a binary search — O(N log nnz). A solver whose
// products run on CSC reads its rows from row-major storage beside it (the
// builder's canonical triplets) instead.
func (m *CSCMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	for j := 0; j < m.cols; j++ {
		lo, hi := m.ptr[j], m.ptr[j+1]
		seg := m.idx[lo:hi]
		k := sort.Search(len(seg), func(k int) bool { return seg[k] >= int32(i) })
		if k < len(seg) && seg[k] == int32(i) {
			dst = dst.Append(int32(j), m.val[lo+int32(k)])
		}
	}
	return dst
}

// MulVecSparse computes dst = A·x column-wise: only the columns of x's
// support are read, Σ_{j∈supp x} colnnz(j) + M work in all. x's indices
// ascend, so each dst[i] adds its terms in ascending column order, as the
// CSR kernel's row sum does: the result is CSR's bit for bit (the terms CSR
// adds for columns outside supp x are zeros, which leave a sum unchanged).
// The kernel is serial whatever ex's worker count, so the bits cannot
// depend on it; scratch is not read.
func (m *CSCMatrix) MulVecSparse(dst []float64, x Vector, _ []float64, ex *exec.Exec) {
	t := ex.Begin()
	m.mulCols(dst, x)
	if ex.Tracking() {
		ex.End(exec.KindCSC, m.touched(x), t)
	}
}

// MulVecSparse2 computes dst1 = A·x1 and dst2 = A·x2 as two column walks.
// Unlike the row formats' products, which each stream the whole matrix and
// so share one sweep when fused, each walk reads only its own row's columns;
// each product is MulVecSparse's, bit for bit.
func (m *CSCMatrix) MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, _, _ []float64, ex *exec.Exec) {
	t := ex.Begin()
	m.mulCols(dst1, x1)
	m.mulCols(dst2, x2)
	if ex.Tracking() {
		ex.End(exec.KindPair, m.touched(x1)+m.touched(x2), t)
	}
}

// mulCols is the column kernel: dst = Σ_{j∈supp x} x_j·A[:,j].
func (m *CSCMatrix) mulCols(dst []float64, x Vector) {
	clear(dst)
	for k, j := range x.Index {
		xv := x.Value[k]
		lo, hi := m.ptr[j], m.ptr[j+1]
		val := m.val[lo:hi]
		for q, i := range m.idx[lo:hi] {
			dst[i] += val[q] * xv
		}
	}
}

// touched counts the stored elements the CSC kernel actually reads for
// input x — the sum of the touched columns' lengths, since only columns
// with a nonzero x entry are visited. Used only for instrumentation.
func (m *CSCMatrix) touched(x Vector) int64 {
	var n int64
	for _, j := range x.Index {
		n += int64(m.ptr[j+1] - m.ptr[j])
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
	return int64(len(m.ptr))*4 + int64(len(m.idx))*4 + int64(len(m.val))*8
}
