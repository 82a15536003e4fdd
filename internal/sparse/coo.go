package sparse

import (
	"sort"

	"repro/internal/exec"
)

// COOMatrix is coordinate (triplet) storage kept row-major sorted. Its
// multiply kernel parallelizes over *nonzeros* rather than rows, which is
// why the paper finds COO beats CSR as vdim (row-length variance) grows:
// the nnz space is perfectly balanced no matter how skewed the rows are.
type COOMatrix struct {
	rows, cols int
	row, col   []int32
	val        []float64
}

func newCOO(rows, cols int, base int32, r, c []int32, v []float64) *COOMatrix {
	m := &COOMatrix{
		rows: rows,
		cols: cols,
		row:  make([]int32, len(v)),
		col:  make([]int32, len(v)),
		val:  make([]float64, len(v)),
	}
	copy(m.row, r)
	if base != 0 {
		for k := range m.row {
			m.row[k] -= base
		}
	}
	copy(m.col, c)
	copy(m.val, v)
	return m
}

// Dims returns the matrix dimensions.
func (m *COOMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *COOMatrix) NNZ() int { return len(m.val) }

// Format returns COO.
func (m *COOMatrix) Format() Format { return COO }

// RowTo appends the nonzeros of row i to dst using binary search over the
// row-sorted triplets.
func (m *COOMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	lo := sort.Search(len(m.row), func(k int) bool { return m.row[k] >= int32(i) })
	for k := lo; k < len(m.row) && m.row[k] == int32(i); k++ {
		dst = dst.Append(m.col[k], m.val[k])
	}
	return dst
}

// MulVecSparse computes dst = A·x parallelized over the nnz space. Each
// worker takes a contiguous triplet range snapped forward to the next row
// start, so every row is summed by exactly one worker in triplet order: no
// atomics, no merge pass, and the result is bit-identical to the serial
// kernel for every worker count. A row longer than its share of the nnz
// space stays with the worker it starts in.
func (m *COOMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	for i := range dst {
		dst[i] = 0
	}
	n := len(m.val)
	if n == 0 {
		x.GatherFrom(scratch)
		ex.End(exec.KindCOO, 0, t)
		return
	}
	// Static whatever the context's schedule: one triplet range per worker.
	ex.ForKernelStatic(n, cooMulRange, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindCOO, m.StoredElements(), t)
}

func cooMulRange(o exec.Operands, lo, hi int) {
	o.M.(*COOMatrix).mulRows(o.Dst, o.X, lo, hi)
}

// mulRows accumulates the rows that start in triplet range [lo, hi): both
// ends move forward to the next row start, so a row straddling hi is
// finished here and one straddling lo is left to the previous range.
func (m *COOMatrix) mulRows(dst, scratch []float64, lo, hi int) {
	for k, end := m.rowStart(lo), m.rowStart(hi); k < end; k++ {
		dst[m.row[k]] += m.val[k] * scratch[m.col[k]]
	}
}

// rowStart returns the first triplet index >= k that begins a row.
func (m *COOMatrix) rowStart(k int) int {
	for k > 0 && k < len(m.row) && m.row[k] == m.row[k-1] {
		k++
	}
	return k
}

// StoredElements returns 3·nnz per Table II (row, column and value arrays).
func (m *COOMatrix) StoredElements() int64 { return 3 * int64(len(m.val)) }

// StorageBytes returns the backing array footprint.
func (m *COOMatrix) StorageBytes() int64 {
	return int64(len(m.row))*4 + int64(len(m.col))*4 + int64(len(m.val))*8
}
