package sparse

// Convert re-materializes any matrix in the target format by streaming its
// rows through a Builder. Converting a matrix to its own format produces an
// independent copy.
func Convert(m Matrix, target Format) (Matrix, error) {
	rows, cols := m.Dims()
	b := NewBuilder(rows, cols)
	var scratch Vector
	for i := 0; i < rows; i++ {
		scratch = m.RowTo(scratch, i)
		b.AddRow(i, scratch)
	}
	return b.Build(target)
}

// ToDense renders any matrix as a freshly allocated row-major dense slice,
// mainly for tests and small reference computations.
func ToDense(m Matrix) []float64 {
	rows, cols := m.Dims()
	out := make([]float64, rows*cols)
	var scratch Vector
	for i := 0; i < rows; i++ {
		scratch = m.RowTo(scratch, i)
		for k, j := range scratch.Index {
			out[i*cols+int(j)] = scratch.Value[k]
		}
	}
	return out
}

// Equal reports whether two matrices hold the same logical elements.
func Equal(a, b Matrix) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	var va, vb Vector
	for i := 0; i < ar; i++ {
		va = a.RowTo(va, i)
		vb = b.RowTo(vb, i)
		if len(va.Index) != len(vb.Index) {
			return false
		}
		for k := range va.Index {
			if va.Index[k] != vb.Index[k] || va.Value[k] != vb.Value[k] {
				return false
			}
		}
	}
	return true
}
