package sparse

import (
	"fmt"

	"repro/internal/exec"
)

// maxDIAElements caps the padded DIA data array so a pathological matrix
// (every diagonal occupied on a large dense matrix) cannot exhaust memory.
const maxDIAElements = 1 << 27

// DIAMatrix is diagonal storage: one padded lane of length min(M,N) per
// occupied diagonal, plus an offsets array. Work and storage grow with the
// number of occupied diagonals (ndig), not with nnz, which is why the
// paper's Figure 2 shows DIA collapsing as the same nnz spreads over more
// diagonals, and why Table II bounds its storage by
// (min(M,N)+1)·(M+N−1).
type DIAMatrix struct {
	rows, cols int
	nnz        int
	stride     int     // lane length: min(rows, cols)
	offsets    []int32 // ascending diagonal offsets o = col − row
	data       []float64
}

// DIAFits reports whether an rows×cols matrix with ndig occupied diagonals
// stays within the padded-element cap DIA construction enforces.
func DIAFits(rows, cols, ndig int) bool {
	return int64(ndig)*int64(min(rows, cols)) <= maxDIAElements
}

// newDIA builds the rows×cols matrix whose triplets carry row indices
// base..base+rows−1 (see Builder.BuildRows). lane is the caller's workspace
// for numbering the diagonals, returned grown for the next call. A matrix
// over the cap is refused before m is written to.
func newDIA(m *DIAMatrix, lane []int32, rows, cols int, base int32, r, c []int32, v []float64) (*DIAMatrix, []int32, error) {
	stride := min(rows, cols)
	// lane[o+rows−1] is, after the first pass, whether diagonal o = col − row
	// is occupied and, after the numbering below, its lane.
	lane = zeroed(lane, rows+cols-1)
	shift := base + int32(rows) - 1
	ndig := 0
	for k := range v {
		if o := c[k] - r[k] + shift; lane[o] == 0 {
			lane[o] = 1
			ndig++
		}
	}
	if !DIAFits(rows, cols, ndig) {
		return nil, lane, fmt.Errorf("sparse: DIA would need %d padded elements (%d diagonals × stride %d), above the %d cap",
			int64(ndig)*int64(stride), ndig, stride, int64(maxDIAElements))
	}
	if m == nil {
		m = new(DIAMatrix)
	}
	*m = DIAMatrix{
		rows:    rows,
		cols:    cols,
		nnz:     len(v),
		stride:  stride,
		offsets: reuse(m.offsets, ndig)[:0],
		data:    zeroed(m.data, ndig*stride),
	}
	for o, occupied := range lane {
		if occupied != 0 {
			lane[o] = int32(len(m.offsets))
			m.offsets = append(m.offsets, int32(o-rows+1))
		}
	}
	for k := range v {
		row := r[k] - base
		o := c[k] - row
		m.data[int(lane[o+int32(rows)-1])*stride+m.slot(int(row), o)] = v[k]
	}
	return m, lane, nil
}

// slot maps a row index on diagonal o to its lane position.
func (m *DIAMatrix) slot(row int, o int32) int {
	if o < 0 {
		return row + int(o) // == row - |o|
	}
	return row
}

// Dims returns the matrix dimensions.
func (m *DIAMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logically nonzero elements (padding excluded).
func (m *DIAMatrix) NNZ() int { return m.nnz }

// Format returns DIA.
func (m *DIAMatrix) Format() Format { return DIA }

// NumDiagonals returns ndig, the occupied diagonal count.
func (m *DIAMatrix) NumDiagonals() int { return len(m.offsets) }

// RowTo appends the nonzeros of row i to dst by probing every lane;
// offsets ascend, so columns come out ascending.
func (m *DIAMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	for d, o := range m.offsets {
		j := i + int(o)
		if j < 0 || j >= m.cols {
			continue
		}
		s := m.slot(i, o)
		if s < 0 || s >= m.stride {
			continue
		}
		if x := m.data[d*m.stride+s]; x != 0 {
			dst = dst.Append(int32(j), x)
		}
	}
	return dst
}

// MulVecSparse computes dst = A·x with row blocks as the parallel unit.
// Each worker walks every diagonal lane restricted to its row range, so
// the inner loops are branch-free strides over the padded lanes — work is
// Θ(M·ndig) including padding, matching the DIA cost model that drives
// Figure 2, while banded matrices stream at dense-lane speed (no index
// loads at all, DIA's advantage on trefethen-like data).
func (m *DIAMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(m.rows, diaMulRange, exec.Operands{M: m, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindDIA, m.StoredElements(), t)
}

func diaMulRange(ops exec.Operands, lo, hi int) {
	m, dst, scratch := ops.M.(*DIAMatrix), ops.Dst, ops.X
	for i := lo; i < hi; i++ {
		dst[i] = 0
	}
	for d, o := range m.offsets {
		// Rows covered by diagonal o: [max(0,−o), min(rows, cols−o)).
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
			// slot = i + o and column j = i + o coincide.
			for i := rlo; i < rhi; i++ {
				dst[i] += lane[i+int(o)] * scratch[i+int(o)]
			}
		} else {
			for i := rlo; i < rhi; i++ {
				dst[i] += lane[i] * scratch[i+int(o)]
			}
		}
	}
}

// StoredElements returns ndig·(min(M,N)+1): each lane's padded data plus
// one offset entry, the quantity Table II bounds by
// (min(M,N)+1)·(M+N−1).
func (m *DIAMatrix) StoredElements() int64 {
	return int64(len(m.offsets)) * int64(m.stride+1)
}

// StorageBytes returns the backing array footprint.
func (m *DIAMatrix) StorageBytes() int64 {
	return int64(len(m.offsets))*4 + int64(len(m.data))*8
}
