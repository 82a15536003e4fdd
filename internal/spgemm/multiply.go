package spgemm

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Scratch owns the per-worker accumulators, marker arrays, and triplet
// buffers a multiply needs, so repeated measurements of the same pair reuse
// one arena. A Scratch is not safe for concurrent Multiply calls; the pool
// hands each caller its own.
type Scratch struct {
	counts  []int64 // per-output-row entry count from the symbolic pass
	merge   []triplet
	workers []workerScratch
}

type triplet struct {
	row, col int32
	val      float64
}

// workerScratch is the slab one partition works in. The marker array uses a
// generation counter instead of clearing: mark[j] == gen means column j was
// touched for the current output row, so rows (and calls) reuse the array
// with no zeroing pass.
type workerScratch struct {
	gen  int64
	mark []int64
	acc  []float64
	cols []int32
	av   sparse.Vector // RowTo scratch for non-CSR operands
	trip []triplet     // outer-product emission buffer
	idx  []int32       // inner-product per-partition output
	val  []float64
}

func (w *workerScratch) ensure(cols int) {
	if len(w.mark) < cols {
		w.mark = make([]int64, cols)
		w.acc = make([]float64, cols)
	}
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Multiply computes out = A·B with the candidate's dataflow using a pooled
// Scratch. out is Reset first; its buffers are reused. A nil ex runs
// serially. All dataflows produce identical structure and (for Gustavson
// and outer product) bit-identical values regardless of worker count:
// partitions are contiguous and merges happen in a fixed serial order.
func Multiply(c Candidate, a, b sparse.Matrix, out *Result, ex *exec.Exec) error {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return sc.Multiply(c, a, b, out, ex)
}

// Multiply is the arena-owning form of the package-level Multiply.
func (sc *Scratch) Multiply(c Candidate, a, b sparse.Matrix, out *Result, ex *exec.Exec) error {
	if !Supported(c) {
		return fmt.Errorf("spgemm: unsupported candidate %s", c)
	}
	if a.Format() != c.AFormat || b.Format() != c.BFormat {
		return fmt.Errorf("spgemm: candidate %s given %s×%s operands", c, a.Format(), b.Format())
	}
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ac != br {
		return fmt.Errorf("spgemm: dimension mismatch %dx%d × %dx%d", ar, ac, br, bc)
	}
	out.Reset(ar, bc)
	if ar == 0 || bc == 0 {
		return nil
	}
	switch c.Dataflow {
	case Gustavson:
		sc.gustavson(a, b.(*sparse.CSRMatrix), out, ex)
	case OuterProduct:
		sc.outer(a.(*sparse.CSCMatrix), b, out, ex)
	case InnerProduct:
		sc.inner(a.(*sparse.CSRMatrix), b.(*sparse.CSCMatrix), out, ex)
	}
	return nil
}

// rowOf streams row i of m: zero-copy for CSR, via the worker's RowTo
// scratch otherwise (the ELL path).
func rowOf(m sparse.Matrix, i int, buf *sparse.Vector) sparse.Vector {
	if csr, ok := m.(*sparse.CSRMatrix); ok {
		return csr.Row(i)
	}
	*buf = m.RowTo(*buf, i)
	return *buf
}

func (sc *Scratch) grow(rows, parts int) {
	if cap(sc.counts) < rows {
		sc.counts = make([]int64, rows)
	} else {
		sc.counts = sc.counts[:rows]
	}
	if len(sc.workers) < parts {
		sc.workers = append(sc.workers, make([]workerScratch, parts-len(sc.workers))...)
	}
}

// gustavson is the row-wise dataflow with an explicit symbolic/numeric
// split: an exact per-row entry count first (marker accumulator, no
// values), a serial prefix sum sizing the arena, then a numeric fill pass
// over the same partitions writing each row's sorted entries in place.
func (sc *Scratch) gustavson(a sparse.Matrix, b *sparse.CSRMatrix, out *Result, ex *exec.Exec) {
	rows := out.rows
	p := ex.Parts(rows)
	sc.grow(rows, p)

	ex.ForParts(p, func(w int) {
		ws := &sc.workers[w]
		ws.ensure(out.cols)
		lo, hi := parallel.SplitRange(rows, p, w)
		for i := lo; i < hi; i++ {
			ws.gen++
			g := ws.gen
			var n int64
			arow := rowOf(a, i, &ws.av)
			for _, k := range arow.Index {
				brow := b.Row(int(k))
				for _, j := range brow.Index {
					if ws.mark[j] != g {
						ws.mark[j] = g
						n++
					}
				}
			}
			sc.counts[i] = n
		}
	})

	var total int64
	for i := 0; i < rows; i++ {
		out.ptr[i] = total
		total += sc.counts[i]
	}
	out.ptr[rows] = total
	out.grow(total)

	ex.ForParts(p, func(w int) {
		ws := &sc.workers[w]
		lo, hi := parallel.SplitRange(rows, p, w)
		for i := lo; i < hi; i++ {
			ws.gen++
			g := ws.gen
			ws.cols = ws.cols[:0]
			arow := rowOf(a, i, &ws.av)
			for q, k := range arow.Index {
				av := arow.Value[q]
				brow := b.Row(int(k))
				for r, j := range brow.Index {
					if ws.mark[j] != g {
						ws.mark[j] = g
						ws.acc[j] = 0
						ws.cols = append(ws.cols, j)
					}
					ws.acc[j] += av * brow.Value[r]
				}
			}
			slices.Sort(ws.cols)
			base := out.ptr[i]
			for q, j := range ws.cols {
				out.idx[base+int64(q)] = j
				out.val[base+int64(q)] = ws.acc[j]
			}
		}
	})
}

// outer accumulates rank-1 contributions A(:,k) ⊗ B(k,:). Workers emit
// (row, col, value) triplets over contiguous k partitions. The merge is
// linear: a counting sort by row scatters the buffers in partition order, so
// each row's triplets stay in ascending-k order, and a marker accumulator
// then folds each row's cells in that order — the first contribution
// assigned, the rest added, so a lone −0 stays −0 — and sorts the row's
// distinct columns. Every cell is summed in ascending k whatever the worker
// count, so the product is bit-identical to the serial one.
func (sc *Scratch) outer(a *sparse.CSCMatrix, b sparse.Matrix, out *Result, ex *exec.Exec) {
	_, k := a.Dims()
	p := ex.Parts(k)
	sc.grow(out.rows, p)

	ex.ForParts(p, func(w int) {
		ws := &sc.workers[w]
		ws.trip = ws.trip[:0]
		lo, hi := parallel.SplitRange(k, p, w)
		for kk := lo; kk < hi; kk++ {
			col := a.Col(kk)
			if len(col.Index) == 0 {
				continue
			}
			brow := rowOf(b, kk, &ws.av)
			for q, i := range col.Index {
				av := col.Value[q]
				for r, j := range brow.Index {
					ws.trip = append(ws.trip, triplet{row: i, col: j, val: av * brow.Value[r]})
				}
			}
		}
	})

	// Counting sort by row: sc.counts holds each row's next free slot in
	// sc.merge, so after the scatter it holds the row's end.
	clear(sc.counts)
	for w := 0; w < p; w++ {
		for _, t := range sc.workers[w].trip {
			sc.counts[t.row]++
		}
	}
	var total int64
	for i, n := range sc.counts {
		sc.counts[i] = total
		total += n
	}
	sc.merge = slices.Grow(sc.merge[:0], int(total))[:total]
	for w := 0; w < p; w++ {
		for _, t := range sc.workers[w].trip {
			sc.merge[sc.counts[t.row]] = t
			sc.counts[t.row]++
		}
	}

	// Fold row by row. A row's cells are packed to the front of sc.merge as
	// they are done: at never passes the row's own start, and the row has
	// been read in full by the time its cells are written.
	ws := &sc.workers[0]
	ws.ensure(out.cols)
	var start, at int64
	for i, end := range sc.counts {
		ws.gen++
		g := ws.gen
		ws.cols = ws.cols[:0]
		for _, t := range sc.merge[start:end] {
			if ws.mark[t.col] != g {
				ws.mark[t.col] = g
				ws.acc[t.col] = t.val
				ws.cols = append(ws.cols, t.col)
			} else {
				ws.acc[t.col] += t.val
			}
		}
		slices.Sort(ws.cols)
		for _, j := range ws.cols {
			sc.merge[at] = triplet{col: j, val: ws.acc[j]}
			at++
		}
		out.ptr[i+1] = at
		start = end
	}
	out.grow(at)
	for q, t := range sc.merge[:at] {
		out.idx[q] = t.col
		out.val[q] = t.val
	}
}

// inner computes each output cell as a sorted-intersection dot of an A row
// with a B column. Workers own contiguous row partitions and append their
// rows' entries to per-partition buffers; a serial stitch concatenates them
// through the prefix-summed row pointers.
func (sc *Scratch) inner(a *sparse.CSRMatrix, b *sparse.CSCMatrix, out *Result, ex *exec.Exec) {
	rows, cols := out.rows, out.cols
	p := ex.Parts(rows)
	sc.grow(rows, p)

	ex.ForParts(p, func(w int) {
		ws := &sc.workers[w]
		ws.idx = ws.idx[:0]
		ws.val = ws.val[:0]
		lo, hi := parallel.SplitRange(rows, p, w)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			var n int64
			if len(arow.Index) != 0 {
				for j := 0; j < cols; j++ {
					if v, hit := dotSorted(arow, b.Col(j)); hit {
						ws.idx = append(ws.idx, int32(j))
						ws.val = append(ws.val, v)
						n++
					}
				}
			}
			sc.counts[i] = n
		}
	})

	var total int64
	for i := 0; i < rows; i++ {
		out.ptr[i] = total
		total += sc.counts[i]
	}
	out.ptr[rows] = total
	out.grow(total)
	var at int64
	for w := 0; w < p; w++ {
		ws := &sc.workers[w]
		copy(out.idx[at:], ws.idx)
		copy(out.val[at:], ws.val)
		at += int64(len(ws.idx))
	}
}

// dotSorted is the two-pointer intersection dot. hit reports whether the
// patterns intersect at all (a structural nonzero, even if values cancel).
func dotSorted(x, y sparse.Vector) (v float64, hit bool) {
	i, j := 0, 0
	for i < len(x.Index) && j < len(y.Index) {
		switch {
		case x.Index[i] < y.Index[j]:
			i++
		case x.Index[i] > y.Index[j]:
			j++
		default:
			v += x.Value[i] * y.Value[j]
			hit = true
			i++
			j++
		}
	}
	return v, hit
}
