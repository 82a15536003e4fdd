package sparse

import "repro/internal/exec"

// defaultBlock is the register-blocking factor used when BCSR is built via
// Builder.Build; 4×4 is OSKI's most common profitable block on x86.
const defaultBlock = 4

// BCSRMatrix is block compressed sparse row storage: CSR over dense b×b
// blocks. The paper lists it as the derived format of choice "when there
// are many dense sub-blocks in a sparse matrix" (§III-A). Fill-in zeros
// inside a touched block are stored and multiplied, so its efficiency
// depends on the block fill ratio; it is provided as an extension to the
// five scheduled formats.
type BCSRMatrix struct {
	rows, cols int       // logical dims
	b          int       // block edge
	brows      int       // number of block rows
	nnz        int       // logical nonzeros
	ptr        []int64   // len brows+1, in blocks
	bidx       []int32   // block-column index per stored block
	val        []float64 // len len(bidx)*b*b, blocks stored row-major
}

func newBCSR(m *BCSRMatrix, rows, cols int, base int32, r, c []int32, v []float64, b int) *BCSRMatrix {
	if b <= 0 {
		b = defaultBlock
	}
	brows := (rows + b - 1) / b
	if m == nil {
		m = new(BCSRMatrix)
	}
	*m = BCSRMatrix{rows: rows, cols: cols, b: b, brows: brows, nnz: len(v),
		ptr: zeroed(m.ptr, brows+1), bidx: m.bidx, val: m.val} // sized below
	// Triplets arrive row-major sorted; group them by block row, then by
	// block column within each block row.
	type blockKey struct{ br, bc int32 }
	blockOf := make(map[blockKey]int) // key -> position in m.bidx
	// First pass: count blocks per block-row to size ptr.
	seen := make(map[blockKey]bool)
	for k := range v {
		key := blockKey{(r[k] - base) / int32(b), c[k] / int32(b)}
		if !seen[key] {
			seen[key] = true
			m.ptr[key.br+1]++
		}
	}
	for i := 0; i < brows; i++ {
		m.ptr[i+1] += m.ptr[i]
	}
	nblocks := int(m.ptr[brows])
	m.bidx = reuse(m.bidx, nblocks)
	m.val = zeroed(m.val, nblocks*b*b)
	fill := make([]int64, brows)
	for k := range v {
		key := blockKey{(r[k] - base) / int32(b), c[k] / int32(b)}
		pos, ok := blockOf[key]
		if !ok {
			pos = int(m.ptr[key.br] + fill[key.br])
			fill[key.br]++
			m.bidx[pos] = key.bc
			blockOf[key] = pos
		}
		lr := int(r[k]-base) - int(key.br)*b
		lc := int(c[k]) - int(key.bc)*b
		m.val[pos*b*b+lr*b+lc] = v[k]
	}
	return m
}

// NewBCSR builds a BCSR matrix with an explicit block edge from a builder.
func NewBCSR(bld *Builder, block int) *BCSRMatrix {
	r, c, v := bld.canonical()
	return newBCSR(nil, bld.rows, bld.cols, 0, r, c, v, block)
}

// Dims returns the matrix dimensions.
func (m *BCSRMatrix) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logically nonzero elements (fill-in excluded).
func (m *BCSRMatrix) NNZ() int { return m.nnz }

// Format returns BCSR.
func (m *BCSRMatrix) Format() Format { return BCSR }

// NumBlocks returns the number of stored b×b blocks.
func (m *BCSRMatrix) NumBlocks() int { return len(m.bidx) }

// FillRatio returns stored slots / logical nonzeros — 1.0 means perfect
// blocking, larger means wasted fill-in work.
func (m *BCSRMatrix) FillRatio() float64 {
	if m.nnz == 0 {
		return 1
	}
	return float64(len(m.val)) / float64(m.nnz)
}

// RowTo appends the nonzeros of row i to dst. Blocks within a block row are
// not column-sorted in general, so entries are collected then sorted.
func (m *BCSRMatrix) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(m.cols)
	br := i / m.b
	lr := i - br*m.b
	for p := m.ptr[br]; p < m.ptr[br+1]; p++ {
		base := int(p)*m.b*m.b + lr*m.b
		for lc := 0; lc < m.b; lc++ {
			if x := m.val[base+lc]; x != 0 {
				j := int(m.bidx[p])*m.b + lc
				if j < m.cols {
					dst = dst.Append(int32(j), x)
				}
			}
		}
	}
	dst.sortEntries()
	return dst
}

// MulVecSparse computes dst = A·x block-row-parallel, streaming every
// stored block slot (fill-in included).
func (m *BCSRMatrix) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	b := m.b
	ex.ForRange(m.brows, func(lo, hi int) {
		for br := lo; br < hi; br++ {
			rowBase := br * b
			rowsHere := min(b, m.rows-rowBase)
			for lr := 0; lr < rowsHere; lr++ {
				dst[rowBase+lr] = 0
			}
			for p := m.ptr[br]; p < m.ptr[br+1]; p++ {
				colBase := int(m.bidx[p]) * b
				colsHere := min(b, m.cols-colBase)
				blk := m.val[int(p)*b*b : int(p+1)*b*b]
				for lr := 0; lr < rowsHere; lr++ {
					var sum float64
					for lc := 0; lc < colsHere; lc++ {
						sum += blk[lr*b+lc] * scratch[colBase+lc]
					}
					dst[rowBase+lr] += sum
				}
			}
		}
	})
	x.GatherFrom(scratch)
	ex.End(exec.KindBCSR, m.StoredElements(), t)
}

// StoredElements returns stored block slots + block indices + pointers,
// the BCSR analogue of Table II's accounting.
func (m *BCSRMatrix) StoredElements() int64 {
	return int64(len(m.val)) + int64(len(m.bidx)) + int64(len(m.ptr))
}

// StorageBytes returns the backing array footprint.
func (m *BCSRMatrix) StorageBytes() int64 {
	return int64(len(m.ptr))*8 + int64(len(m.bidx))*4 + int64(len(m.val))*8
}
