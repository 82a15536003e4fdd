package sparse

import "repro/internal/exec"

// PairMultiplier is implemented by formats whose kernels can compute two
// SMSV products in a single pass over the stored elements. SMO needs
// exactly two kernel rows per iteration (X·X_high and X·X_low, §III-A), so
// fusing them halves the matrix memory traffic — on a memory-bound kernel
// (Equation 7), nearly a 2× iteration speedup.
type PairMultiplier interface {
	// MulVecSparse2 computes dst1 = A·x1 and dst2 = A·x2 with one sweep
	// over A. scratch1 and scratch2 are distinct cols-length workspaces;
	// ex supplies workers, schedule, and optional counters (recorded under
	// KindPair, since the fused sweep reads A once for both products).
	MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec)
}

// pairOperands packs a fused kernel's operands: the loop bodies below are
// package-level functions in exec.Kernel form, so a dispatch allocates
// nothing where a closure over the same five values would.
func pairOperands(m Matrix, dst1, dst2, scratch1, scratch2 []float64) exec.Operands {
	return exec.Operands{M: m, Dst: dst1, Dst2: dst2, X: scratch1, X2: scratch2}
}

// MulVecSparse2 computes both products in one pass over the CSR arrays.
func (m *CSRMatrix) MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	t := ex.Begin()
	x1.ScatterInto(scratch1)
	x2.ScatterInto(scratch2)
	ex.ForKernel(m.rows, csrMulRange2, pairOperands(m, dst1, dst2, scratch1, scratch2))
	x1.GatherFrom(scratch1)
	x2.GatherFrom(scratch2)
	ex.End(exec.KindPair, m.StoredElements(), t)
}

func csrMulRange2(o exec.Operands, lo, hi int) {
	m, dst1, dst2, scratch1, scratch2 := o.M.(*CSRMatrix), o.Dst, o.Dst2, o.X, o.X2
	for i := lo; i < hi; i++ {
		var s1, s2 float64
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			v := m.val[k]
			j := m.idx[k]
			s1 += v * scratch1[j]
			s2 += v * scratch2[j]
		}
		dst1[i] = s1
		dst2[i] = s2
	}
}

// MulVecSparse2 computes both products in one pass over the dense array.
func (d *Dense) MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	t := ex.Begin()
	x1.ScatterInto(scratch1)
	x2.ScatterInto(scratch2)
	ex.ForKernel(d.rows, denseMulRange2, pairOperands(d, dst1, dst2, scratch1, scratch2))
	x1.GatherFrom(scratch1)
	x2.GatherFrom(scratch2)
	ex.End(exec.KindPair, d.StoredElements(), t)
}

func denseMulRange2(o exec.Operands, lo, hi int) {
	d, dst1, dst2, scratch1, scratch2 := o.M.(*Dense), o.Dst, o.Dst2, o.X, o.X2
	cols := d.cols
	for i := lo; i < hi; i++ {
		row := d.data[i*cols : (i+1)*cols]
		var s1, s2 float64
		for j, a := range row {
			s1 += a * scratch1[j]
			s2 += a * scratch2[j]
		}
		dst1[i] = s1
		dst2[i] = s2
	}
}

// MulVecSparse2 computes both products in one pass over the ELL slots.
func (m *ELLMatrix) MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	t := ex.Begin()
	x1.ScatterInto(scratch1)
	x2.ScatterInto(scratch2)
	ex.ForKernel(m.rows, ellMulRange2, pairOperands(m, dst1, dst2, scratch1, scratch2))
	x1.GatherFrom(scratch1)
	x2.GatherFrom(scratch2)
	ex.End(exec.KindPair, m.StoredElements(), t)
}

func ellMulRange2(o exec.Operands, lo, hi int) {
	m, dst1, dst2, scratch1, scratch2 := o.M.(*ELLMatrix), o.Dst, o.Dst2, o.X, o.X2
	for i := lo; i < hi; i++ {
		var s1, s2 float64
		base := i * m.width
		for s := 0; s < m.width; s++ {
			v := m.val[base+s]
			j := m.idx[base+s]
			s1 += v * scratch1[j]
			s2 += v * scratch2[j]
		}
		dst1[i] = s1
		dst2[i] = s2
	}
}

// MulVecSparse2 computes both products in one pass over the DIA lanes.
func (m *DIAMatrix) MulVecSparse2(dst1, dst2 []float64, x1, x2 Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	t := ex.Begin()
	x1.ScatterInto(scratch1)
	x2.ScatterInto(scratch2)
	ex.ForKernel(m.rows, diaMulRange2, pairOperands(m, dst1, dst2, scratch1, scratch2))
	x1.GatherFrom(scratch1)
	x2.GatherFrom(scratch2)
	ex.End(exec.KindPair, m.StoredElements(), t)
}

func diaMulRange2(ops exec.Operands, lo, hi int) {
	m, dst1, dst2, scratch1, scratch2 := ops.M.(*DIAMatrix), ops.Dst, ops.Dst2, ops.X, ops.X2
	for i := lo; i < hi; i++ {
		dst1[i] = 0
		dst2[i] = 0
	}
	for d, o := range m.offsets {
		rlo, rhi := lo, hi
		if o < 0 && rlo < -int(o) {
			rlo = -int(o)
		}
		if end := m.cols - int(o); rhi > end {
			rhi = end
		}
		if rlo >= rhi {
			continue
		}
		lane := m.data[d*m.stride : (d+1)*m.stride]
		if o < 0 {
			for i := rlo; i < rhi; i++ {
				v := lane[i+int(o)]
				dst1[i] += v * scratch1[i+int(o)]
				dst2[i] += v * scratch2[i+int(o)]
			}
		} else {
			for i := rlo; i < rhi; i++ {
				v := lane[i]
				dst1[i] += v * scratch1[i+int(o)]
				dst2[i] += v * scratch2[i+int(o)]
			}
		}
	}
}
