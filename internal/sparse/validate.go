package sparse

import "fmt"

// Validator is implemented by formats that can check their own structural
// invariants. Validation is O(stored elements) and intended for tests,
// ingest boundaries and debugging — kernels assume valid structure.
type Validator interface {
	Validate() error
}

// Validate checks CSR invariants: monotone row pointers covering the value
// array, ascending in-range column indices within each row, and no stored
// zeros.
func (m *CSRMatrix) Validate() error {
	if len(m.ptr) != m.rows+1 {
		return fmt.Errorf("sparse: CSR ptr length %d, want %d", len(m.ptr), m.rows+1)
	}
	if m.ptr[0] != 0 || m.ptr[m.rows] != int64(len(m.val)) {
		return fmt.Errorf("sparse: CSR ptr endpoints [%d,%d], want [0,%d]", m.ptr[0], m.ptr[m.rows], len(m.val))
	}
	if len(m.idx) != len(m.val) {
		return fmt.Errorf("sparse: CSR idx/val length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		if m.ptr[i] > m.ptr[i+1] {
			return fmt.Errorf("sparse: CSR ptr decreases at row %d", i)
		}
		prev := int32(-1)
		for k := m.ptr[i]; k < m.ptr[i+1]; k++ {
			if m.idx[k] <= prev {
				return fmt.Errorf("sparse: CSR row %d columns not strictly ascending", i)
			}
			if int(m.idx[k]) >= m.cols {
				return fmt.Errorf("sparse: CSR row %d column %d out of range", i, m.idx[k])
			}
			if m.val[k] == 0 {
				return fmt.Errorf("sparse: CSR stored zero at row %d", i)
			}
			prev = m.idx[k]
		}
	}
	return nil
}

// Validate checks COO invariants: row-major sorted unique coordinates in
// range, no stored zeros.
func (m *COOMatrix) Validate() error {
	if len(m.row) != len(m.val) || len(m.col) != len(m.val) {
		return fmt.Errorf("sparse: COO array length mismatch")
	}
	for k := range m.val {
		if int(m.row[k]) >= m.rows || m.row[k] < 0 || int(m.col[k]) >= m.cols || m.col[k] < 0 {
			return fmt.Errorf("sparse: COO coordinate (%d,%d) out of range", m.row[k], m.col[k])
		}
		if m.val[k] == 0 {
			return fmt.Errorf("sparse: COO stored zero at position %d", k)
		}
		if k > 0 {
			if m.row[k] < m.row[k-1] ||
				(m.row[k] == m.row[k-1] && m.col[k] <= m.col[k-1]) {
				return fmt.Errorf("sparse: COO not strictly row-major sorted at position %d", k)
			}
		}
	}
	return nil
}

// Validate checks ELL invariants: array sizing, in-range indices, nonzero
// entries packed before padding in every row, and the width actually
// realized by some row.
func (m *ELLMatrix) Validate() error {
	if len(m.idx) != m.rows*m.width || len(m.val) != m.rows*m.width {
		return fmt.Errorf("sparse: ELL array size %d, want %d", len(m.val), m.rows*m.width)
	}
	nnz := 0
	widthHit := m.nnz == 0 // an all-zero matrix keeps width 1 vacuously
	for i := 0; i < m.rows; i++ {
		padded := false
		prev := int32(-1)
		rowN := 0
		for s := 0; s < m.width; s++ {
			k := i*m.width + s
			if int(m.idx[k]) >= m.cols || m.idx[k] < 0 {
				return fmt.Errorf("sparse: ELL row %d slot %d index out of range", i, s)
			}
			if m.val[k] == 0 {
				padded = true
				continue
			}
			if padded {
				return fmt.Errorf("sparse: ELL row %d has a value after padding", i)
			}
			if m.idx[k] <= prev {
				return fmt.Errorf("sparse: ELL row %d columns not ascending", i)
			}
			prev = m.idx[k]
			nnz++
			rowN++
		}
		if rowN == m.width {
			widthHit = true
		}
	}
	if nnz != m.nnz {
		return fmt.Errorf("sparse: ELL counted %d nonzeros, header says %d", nnz, m.nnz)
	}
	if !widthHit && m.width != 1 {
		return fmt.Errorf("sparse: ELL width %d not realized by any row", m.width)
	}
	return nil
}

// Validate checks DIA invariants: strictly ascending in-range offsets,
// correct lane sizing, nonzeros only on valid positions, and the declared
// nnz.
func (m *DIAMatrix) Validate() error {
	if len(m.data) != len(m.offsets)*m.stride {
		return fmt.Errorf("sparse: DIA data size %d, want %d", len(m.data), len(m.offsets)*m.stride)
	}
	prev := int32(-(1 << 30))
	for _, o := range m.offsets {
		if o <= prev {
			return fmt.Errorf("sparse: DIA offsets not strictly ascending")
		}
		if int(o) <= -m.rows || int(o) >= m.cols {
			return fmt.Errorf("sparse: DIA offset %d out of range", o)
		}
		prev = o
	}
	nnz := 0
	for d, o := range m.offsets {
		for s := 0; s < m.stride; s++ {
			x := m.data[d*m.stride+s]
			if x == 0 {
				continue
			}
			// Recover the row for this slot and check it lies on the
			// diagonal's valid span.
			row := s
			if o < 0 {
				row = s - int(o)
			}
			col := row + int(o)
			if row >= m.rows || col < 0 || col >= m.cols {
				return fmt.Errorf("sparse: DIA nonzero in padded slot (lane %d slot %d)", d, s)
			}
			nnz++
		}
	}
	if nnz != m.nnz {
		return fmt.Errorf("sparse: DIA counted %d nonzeros, header says %d", nnz, m.nnz)
	}
	return nil
}

// Validate checks dense invariants: array sizing and the cached nonzero
// count.
func (d *Dense) Validate() error {
	if len(d.data) != d.rows*d.cols {
		return fmt.Errorf("sparse: DEN data size %d, want %d", len(d.data), d.rows*d.cols)
	}
	nnz := 0
	for _, x := range d.data {
		if x != 0 {
			nnz++
		}
	}
	if nnz != d.nnz {
		return fmt.Errorf("sparse: DEN counted %d nonzeros, header says %d", nnz, d.nnz)
	}
	return nil
}

// ValidateMatrix validates m when its format implements Validator and
// additionally cross-checks Dims/NNZ consistency against a row scan.
func ValidateMatrix(m Matrix) error {
	if v, ok := m.(Validator); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	rows, cols := m.Dims()
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("sparse: non-positive dims %dx%d", rows, cols)
	}
	nnz := 0
	var v Vector
	for i := 0; i < rows; i++ {
		v = m.RowTo(v, i)
		if err := v.Validate(); err != nil {
			return fmt.Errorf("sparse: row %d: %w", i, err)
		}
		nnz += v.NNZ()
	}
	if nnz != m.NNZ() {
		return fmt.Errorf("sparse: row scan found %d nonzeros, NNZ() says %d", nnz, m.NNZ())
	}
	return nil
}
