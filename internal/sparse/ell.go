package sparse

import "repro/internal/exec"

// ELLMatrix is ELLPACK/ITPACK storage: every row is padded to the length of
// the longest row (mdim), giving two M×mdim arrays. Padded slots carry a
// valid column index (0) and a zero value so the kernel can stream them
// unconditionally — the multiply therefore costs Θ(M·mdim) multiply-adds,
// which is exactly why the paper's Figure 3 shows ELL degrading as mdim
// grows at fixed nnz.
//
// Elements are row-major — row i occupies slots [i·width, (i+1)·width) —
// which is how the CPU kernels stream a row at a time.
type ELLMatrix struct {
	rows, cols int
	width      int // mdim: slots per row
	nnz        int
	idx        []int32   // rows*width
	val        []float64 // rows*width
}

// newELL reads the triplets in row-major order, as canonical() and NewHYB
// hand them over: each row's entries are one run, copied into the row's
// slots, and only the padding after them is cleared.
func newELL(m *ELLMatrix, rows, cols int, base int32, r, c []int32, v []float64) *ELLMatrix {
	width := 1 // keep arrays non-empty so the kernel has no special case
	for k := 0; k < len(r); {
		end := rowEnd(r, k)
		width = max(width, end-k)
		k = end
	}
	if m == nil {
		m = new(ELLMatrix)
	}
	*m = ELLMatrix{
		rows:  rows,
		cols:  cols,
		width: width,
		nnz:   len(v),
		idx:   reuse(m.idx, rows*width),
		val:   reuse(m.val, rows*width),
	}
	k := 0
	for i := 0; i < rows; i++ {
		at, pad := i*width, (i+1)*width
		if k < len(r) && int(r[k]-base) == i {
			end := rowEnd(r, k)
			copy(m.idx[at:], c[k:end])
			at += copy(m.val[at:], v[k:end])
			k = end
		}
		clear(m.idx[at:pad])
		clear(m.val[at:pad])
	}
	return m
}

// rowEnd returns the end of the run of row-major triplets that starts at k.
func rowEnd(r []int32, k int) int {
	end := k + 1
	for end < len(r) && r[end] == r[k] {
		end++
	}
	return end
}

// Dims returns the matrix dimensions.
func (m *ELLMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logically nonzero elements (padding excluded).
func (m *ELLMatrix) NNZ() int { return m.nnz }

// Format returns ELL.
func (m *ELLMatrix) Format() Format { return ELL }

// RowTo appends the nonzeros of row i to dst, skipping padding.
func (m *ELLMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	for k := i * m.width; k < (i+1)*m.width; k++ {
		if m.val[k] != 0 {
			dst = dst.Append(m.idx[k], m.val[k])
		}
	}
	return dst
}

// MulVecSparse computes dst = A·x streaming all rows*width slots, padding
// included — the Θ(M·mdim) cost model of Table II.
func (m *ELLMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(m.rows, ellMulRange, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindELL, m.StoredElements(), t)
}

func ellMulRange(o exec.Operands, lo, hi int) {
	m, dst, scratch := o.M.(*ELLMatrix), o.Dst, o.X
	for i := lo; i < hi; i++ {
		base := i * m.width
		var sum float64
		for s := 0; s < m.width; s++ {
			sum += m.val[base+s] * scratch[m.idx[base+s]]
		}
		dst[i] = sum
	}
}

// StoredElements returns 2·M·mdim per Table II (index and value arrays,
// padding included; reaches 2MN when some row is fully dense).
func (m *ELLMatrix) StoredElements() int64 {
	return 2 * int64(m.rows) * int64(m.width)
}

// StorageBytes returns the backing array footprint.
func (m *ELLMatrix) StorageBytes() int64 {
	return int64(len(m.idx))*4 + int64(len(m.val))*8
}
