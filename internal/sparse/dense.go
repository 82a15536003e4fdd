package sparse

import "repro/internal/exec"

// Dense is row-major dense (DEN) storage. It stores all M·N elements, so
// its multiply kernel always performs M·N multiply-adds — the behaviour
// that makes DEN the best format for the paper's fully dense datasets
// (gisette, epsilon, dna) and the worst for extremely sparse ones
// (trefethen, sector).
type Dense struct {
	rows, cols int
	nnz        int
	data       []float64 // len rows*cols, row-major
}

func newDense(d *Dense, rows, cols int, base int32, r, c []int32, v []float64) *Dense {
	if d == nil {
		d = new(Dense)
	}
	*d = Dense{rows: rows, cols: cols, nnz: len(v), data: zeroed(d.data, rows*cols)}
	for k := range v {
		d.data[int(r[k]-base)*cols+int(c[k])] = v[k]
	}
	return d
}

// Dims returns the matrix dimensions.
func (d *Dense) Dims() (int, int) { return d.rows, d.cols }

// NNZ returns the number of logically nonzero elements.
func (d *Dense) NNZ() int { return d.nnz }

// Format returns DEN.
func (d *Dense) Format() Format { return DEN }

// At returns element (i, j). It is a convenience for tests and conversion.
func (d *Dense) At(i, j int) float64 { return d.data[i*d.cols+j] }

// RowSlice returns the dense row i as a view into the backing array.
func (d *Dense) RowSlice(i int) []float64 { return d.data[i*d.cols : (i+1)*d.cols] }

// RowTo appends the nonzeros of row i to dst.
func (d *Dense) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(d.cols)
	row := d.RowSlice(i)
	for j, x := range row {
		if x != 0 {
			dst = dst.Append(int32(j), x)
		}
	}
	return dst
}

// MulVecSparse computes dst = A·x. The dense kernel ignores the sparsity of
// x beyond the scatter: each row performs a full N-length dot against the
// scattered image, so work is Θ(M·N) regardless of nnz — exactly the DEN
// cost model of Table II.
func (d *Dense) MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec) {
	t := ex.Begin()
	x.ScatterInto(scratch)
	ex.ForKernel(d.rows, denseMulRange, exec.Operands{M: d, Dst: dst, X: scratch})
	x.GatherFrom(scratch)
	ex.End(exec.KindDEN, d.StoredElements(), t)
}

func denseMulRange(o exec.Operands, lo, hi int) {
	d, dst, scratch := o.M.(*Dense), o.Dst, o.X
	cols := d.cols
	for i := lo; i < hi; i++ {
		row := d.data[i*cols : (i+1)*cols]
		var sum float64
		for j, a := range row {
			sum += a * scratch[j]
		}
		dst[i] = sum
	}
}

// StoredElements returns M·N per Table II.
func (d *Dense) StoredElements() int64 { return int64(d.rows) * int64(d.cols) }

// StorageBytes returns the backing array footprint.
func (d *Dense) StorageBytes() int64 { return int64(len(d.data)) * 8 }
