package sparse

import (
	"sort"

	"repro/internal/exec"
)

// HYBMatrix is the hybrid ELL+COO format: rows are stored in an ELL part
// up to a width threshold, and the overflow of longer rows spills into a
// row-sorted COO part. It is the classic cure for exactly the failure mode
// the paper's Figure 3 shows — one long row forcing ELL to pad every other
// row — and is provided as a derived-format extension alongside CSC and
// BCSR (§III-A allows "most of the other storage formats" to be derived
// from the basic five).
type HYBMatrix struct {
	rows, cols int
	nnz        int
	ell        *ELLMatrix
	coo        *COOMatrix
}

// DefaultHYBWidth picks the ELL width as the mean row length rounded up,
// the standard heuristic: typical rows stay in the regular part, only the
// tail spills.
func DefaultHYBWidth(rows int, nnz int) int {
	if rows <= 0 {
		return 1
	}
	w := (nnz + rows - 1) / rows
	if w < 1 {
		w = 1
	}
	return w
}

// NewHYB materializes the builder's contents with the given ELL width;
// width <= 0 uses DefaultHYBWidth.
func NewHYB(b *Builder, width int) *HYBMatrix {
	r, c, v := b.canonical()
	if width <= 0 {
		width = DefaultHYBWidth(b.rows, len(v))
	}
	// Split each row's entries: the first `width` stay in ELL, the rest
	// spill to COO. canonical() is row-major sorted, so a single pass
	// with a per-row counter suffices.
	var er, ec []int32
	var ev []float64
	var or, oc []int32
	var ov []float64
	count := make(map[int32]int, b.rows)
	for k := range v {
		row := r[k]
		if count[row] < width {
			count[row]++
			er = append(er, row)
			ec = append(ec, c[k])
			ev = append(ev, v[k])
		} else {
			or = append(or, row)
			oc = append(oc, c[k])
			ov = append(ov, v[k])
		}
	}
	m := &HYBMatrix{
		rows: b.rows,
		cols: b.cols,
		nnz:  len(v),
		ell:  newELL(nil, b.rows, b.cols, 0, er, ec, ev),
		coo:  newCOO(nil, b.rows, b.cols, 0, or, oc, ov),
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *HYBMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logically nonzero elements.
func (m *HYBMatrix) NNZ() int { return m.nnz }

// Format returns ELL: HYB is a derived format and reports its regular
// part's identity for scheduling purposes. Use the concrete type to
// distinguish it.
func (m *HYBMatrix) Format() Format { return ELL }

// Width returns the ELL part's slot count per row.
func (m *HYBMatrix) Width() int { return m.ell.Width() }

// SpillNNZ returns how many nonzeros live in the COO overflow part.
func (m *HYBMatrix) SpillNNZ() int { return m.coo.NNZ() }

// RowTo appends the nonzeros of row i to dst in ascending column order,
// merging the ELL and COO parts.
func (m *HYBMatrix) RowTo(dst Vector, i int) Vector {
	dst = m.ell.RowTo(dst, i)
	nEll := dst.NNZ()
	dst = appendRow(dst, m.coo, i)
	if dst.NNZ() > nEll {
		dst.sortEntries()
	}
	return dst
}

// appendRow appends coo's row i entries onto dst without resetting it.
func appendRow(dst Vector, coo *COOMatrix, i int) Vector {
	lo := sort.Search(len(coo.row), func(k int) bool { return coo.row[k] >= int32(i) })
	for k := lo; k < len(coo.row) && coo.row[k] == int32(i); k++ {
		dst = dst.Append(coo.col[k], coo.val[k])
	}
	return dst
}

// MulVecSparse computes dst = A·x as the ELL product plus the COO overflow
// product. The composite records one KindHYB invocation; the inner part
// kernels run with instrumentation detached so the work is not counted
// twice.
func (m *HYBMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	inner := ex
	if ex.Tracking() {
		inner = ex.WithStats(nil)
	}
	m.ell.MulVecSparse(dst, x, scratch, inner)
	if m.coo.NNZ() != 0 {
		spill := make([]float64, m.rows)
		m.coo.MulVecSparse(spill, x, scratch, inner)
		for i, s := range spill {
			if s != 0 {
				dst[i] += s
			}
		}
	}
	ex.End(exec.KindHYB, m.StoredElements(), t)
}

// StoredElements returns the sum of the parts' Table II footprints.
func (m *HYBMatrix) StoredElements() int64 {
	return m.ell.StoredElements() + m.coo.StoredElements()
}

// StorageBytes returns the backing array footprint of both parts.
func (m *HYBMatrix) StorageBytes() int64 {
	return m.ell.StorageBytes() + m.coo.StorageBytes()
}
