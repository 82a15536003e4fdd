package spgemm

// Result holds the product C = A·B in CSR shape. It is an arena: Reset
// keeps the backing arrays so a Result (and the Scratch that fills it) can
// be reused across measurements without reallocating, mirroring the
// Builder reuse contract on the SMSV side.
//
// The stored pattern is structural: a cell is present when any dataflow
// contribution touched it, so numeric cancellation can leave an explicit
// 0.0 value. All three dataflows produce the same structure, which keeps
// their outputs directly comparable.
type Result struct {
	rows, cols int
	ptr        []int64
	idx        []int32
	val        []float64
}

// Reset prepares the result for a rows×cols product, retaining capacity.
func (r *Result) Reset(rows, cols int) {
	r.rows, r.cols = rows, cols
	if cap(r.ptr) < rows+1 {
		r.ptr = make([]int64, rows+1)
	} else {
		r.ptr = r.ptr[:rows+1]
		for i := range r.ptr {
			r.ptr[i] = 0
		}
	}
	r.idx = r.idx[:0]
	r.val = r.val[:0]
}

// NNZ returns the number of stored entries (structural nonzeros).
func (r *Result) NNZ() int { return len(r.idx) }

// Dense expands the result to a row-major dense image, for tests and
// differential checks.
func (r *Result) Dense() []float64 {
	out := make([]float64, r.rows*r.cols)
	for i := 0; i < r.rows; i++ {
		base := i * r.cols
		for q := r.ptr[i]; q < r.ptr[i+1]; q++ {
			out[base+int(r.idx[q])] = r.val[q]
		}
	}
	return out
}

// grow reserves the final entry count after a symbolic pass, retaining
// capacity across calls.
func (r *Result) grow(nnz int64) {
	if int64(cap(r.idx)) < nnz {
		r.idx = make([]int32, nnz)
		r.val = make([]float64, nnz)
		return
	}
	r.idx = r.idx[:nnz]
	r.val = r.val[:nnz]
}
