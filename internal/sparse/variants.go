package sparse

import "repro/internal/exec"

// Named kernel variants. Each variant keeps the per-row accumulation order
// of the format's base kernel, so its results are bitwise identical to
// MulVecSparse on the same data — variants trade instruction mix and
// locality, never numerics. The differential tests assert this equality
// on the property-test corpus.

// csrRowBlock is the row-block length of the blocked CSR kernel: long
// enough to amortize the blocking loop, short enough that a block's row
// pointers and output stay cache-resident.
const csrRowBlock = 64

// MulVecSparseRowBlocked is the row-blocked CSR SMSV kernel: each parallel
// chunk is walked in csrRowBlock-row blocks via MulVecRange. Per-row work
// is unchanged, so results match MulVecSparse bitwise.
func (m *CSRMatrix) MulVecSparseRowBlocked(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(m.rows, csrMulRangeBlocked, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindCSR, m.StoredElements(), t)
}

func csrMulRangeBlocked(o exec.Operands, lo, hi int) {
	m := o.M.(*CSRMatrix)
	for blo := lo; blo < hi; blo += csrRowBlock {
		m.MulVecRange(o.Dst, o.X, blo, min(blo+csrRowBlock, hi))
	}
}

// MulVecSparseBranchFree is the branch-free ELL SMSV kernel: each row's
// slots are sliced out once so the inner loop ranges over the value
// subslice with no per-slot index arithmetic.
func (m *ELLMatrix) MulVecSparseBranchFree(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(m.rows, ellMulRangeBranchFree, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindELL, m.StoredElements(), t)
}

func ellMulRangeBranchFree(o exec.Operands, lo, hi int) {
	m, dst, scratch := o.M.(*ELLMatrix), o.Dst, o.X
	w := m.width
	for i := lo; i < hi; i++ {
		vals := m.val[i*w : (i+1)*w]
		idxs := m.idx[i*w : (i+1)*w]
		var sum float64
		for s, v := range vals {
			sum += v * scratch[idxs[s]]
		}
		dst[i] = sum
	}
}

// RunPair executes one pair unit — dst1 = A·x1 and dst2 = A·x2 — under the
// candidate's kernel variant. The pair is the scheduler's unit of work and
// measurement because SMO consumes exactly two products per iteration
// (X·X_high and X·X_low), which keeps fused and unfused variants directly
// comparable. The caller supplies an execution context already carrying
// the candidate's chunk policy. A variant the matrix cannot satisfy (e.g.
// a non-CSR matrix asked for rowblocked) degrades to the base kernels.
func (c Candidate) RunPair(m Matrix, dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	switch c.Variant {
	case VariantFused:
		if pm, ok := m.(PairMultiplier); ok {
			pm.MulVecSparse2(dst1, dst2, x1, x2, scratch1, scratch2, ex)
			return
		}
	case VariantRowBlocked:
		if csr, ok := m.(*CSRMatrix); ok {
			csr.MulVecSparseRowBlocked(dst1, x1, scratch1, ex)
			csr.MulVecSparseRowBlocked(dst2, x2, scratch2, ex)
			return
		}
	case VariantBranchFree:
		if ell, ok := m.(*ELLMatrix); ok {
			ell.MulVecSparseBranchFree(dst1, x1, scratch1, ex)
			ell.MulVecSparseBranchFree(dst2, x2, scratch2, ex)
			return
		}
	}
	m.MulVecSparse(dst1, x1, scratch1, ex)
	m.MulVecSparse(dst2, x2, scratch2, ex)
}

// PairScratch bundles the four vectors one pair unit needs: two outputs
// (rows-length) and two scatter workspaces (cols-length). Instances are
// pooled; Get hands out a scratch grown to size with the workspace halves
// zeroed (the kernels' scatter/gather contract restores them to zero, so
// a pooled instance stays clean across uses).
type PairScratch struct {
	Dst1, Dst2         []float64
	Scratch1, Scratch2 []float64
}

// Grow resizes the scratch for an rows×cols matrix, reusing capacity.
// Newly exposed workspace elements are zero, as the scatter kernels
// require.
func (s *PairScratch) Grow(rows, cols int) {
	s.Dst1 = grow(s.Dst1, rows)
	s.Dst2 = grow(s.Dst2, rows)
	s.Scratch1 = grow(s.Scratch1, cols)
	s.Scratch2 = grow(s.Scratch2, cols)
}

func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
