package sparse

import "repro/internal/exec"

// CSRMatrix is compressed sparse row storage: a row-pointer array plus
// column-index and value arrays of length nnz. CSR is LIBSVM's fixed
// choice; the paper shows it is strong for moderately sparse matrices with
// balanced rows, but loses to COO when row lengths vary wildly (high vdim)
// because static row partitions become unbalanced (Figure 4).
type CSRMatrix struct {
	rows, cols int
	ptr        []int64   // len rows+1
	idx        []int32   // len nnz, column indices, ascending within a row
	val        []float64 // len nnz
}

func newCSR(rows, cols int, base int32, r, c []int32, v []float64) *CSRMatrix {
	m := &CSRMatrix{
		rows: rows,
		cols: cols,
		ptr:  make([]int64, rows+1),
		idx:  make([]int32, len(v)),
		val:  make([]float64, len(v)),
	}
	for _, row := range r {
		m.ptr[row-base+1]++
	}
	for i := 0; i < rows; i++ {
		m.ptr[i+1] += m.ptr[i]
	}
	copy(m.idx, c)
	copy(m.val, v)
	return m
}

// rowBlock returns rows [lo, hi) as a matrix of its own that shares m's
// index and value arrays (matrices are immutable); only the row pointers are
// copied, rebased to the block's first element.
func (m *CSRMatrix) rowBlock(lo, hi int) *CSRMatrix {
	p0, p1 := m.ptr[lo], m.ptr[hi]
	ptr := make([]int64, hi-lo+1)
	for i := range ptr {
		ptr[i] = m.ptr[lo+i] - p0
	}
	return &CSRMatrix{rows: hi - lo, cols: m.cols, ptr: ptr, idx: m.idx[p0:p1:p1], val: m.val[p0:p1:p1]}
}

// Dims returns the matrix dimensions.
func (m *CSRMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSRMatrix) NNZ() int { return len(m.val) }

// Format returns CSR.
func (m *CSRMatrix) Format() Format { return CSR }

// Row returns a zero-copy view of row i as a Vector.
func (m *CSRMatrix) Row(i int) Vector {
	lo, hi := m.ptr[i], m.ptr[i+1]
	return Vector{Index: m.idx[lo:hi], Value: m.val[lo:hi], Dim: m.cols}
}

// RowTo appends the nonzeros of row i to dst.
func (m *CSRMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	lo, hi := m.ptr[i], m.ptr[i+1]
	dst.Index = append(dst.Index, m.idx[lo:hi]...)
	dst.Value = append(dst.Value, m.val[lo:hi]...)
	return dst
}

// RowNNZ returns the number of nonzeros in row i (dim_i in the paper).
func (m *CSRMatrix) RowNNZ(i int) int { return int(m.ptr[i+1] - m.ptr[i]) }

// MulVecSparse computes dst = A·x by scattering x and gather-dotting each
// row: work Θ(nnz), but rows are the parallel unit, so skewed row lengths
// unbalance static schedules (the paper's CSR-vs-COO vdim effect).
func (m *CSRMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(m.rows, csrMulRange, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindCSR, m.StoredElements(), t)
}

func csrMulRange(o exec.Operands, lo, hi int) {
	o.M.(*CSRMatrix).MulVecRange(o.Dst, o.X, lo, hi)
}

// MulVecRange computes dst[i] = (A·x)[i] for rows i in [lo, hi) only, with
// x already scattered into scratch by the caller. It exposes the per-chunk
// work of the row-parallel kernel so harnesses can measure load balance
// (e.g. simulating a P-core machine on fewer cores by timing each static
// chunk serially and taking the critical path).
func (m *CSRMatrix) MulVecRange(dst []float64, scratch []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			sum += m.val[k] * scratch[m.idx[k]]
		}
		dst[i] = sum
	}
}

// StoredElements returns 2·nnz + M: the value and index arrays plus the
// row-pointer array counted as M entries, matching Table II's units (min
// M+2 with one nonzero, max 2MN + M when dense).
func (m *CSRMatrix) StoredElements() int64 {
	return 2*int64(len(m.val)) + int64(m.rows)
}

// StorageBytes returns the backing array footprint.
func (m *CSRMatrix) StorageBytes() int64 {
	return int64(len(m.ptr))*8 + int64(len(m.idx))*4 + int64(len(m.val))*8
}
