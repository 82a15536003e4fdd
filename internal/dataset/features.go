// Package dataset provides machine-learning dataset handling for the layout
// scheduler: extraction of the paper's nine influencing parameters
// (Table IV), LIBSVM-format text I/O, and seeded synthetic generators that
// clone the statistical signature of every dataset in the paper's Table V
// as well as the parametric matrix families behind Figures 2–4.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Features holds the paper's Table IV influencing parameters for a data
// matrix. These nine values are the entire input to the layout scheduler:
// the paper's thesis is that they determine which storage format wins.
type Features struct {
	M       int     // number of rows (samples)
	N       int     // number of columns (features; max feature index)
	NNZ     int64   // number of nonzero elements
	Ndig    int     // number of occupied diagonals
	Dnnz    float64 // nnz per diagonal: NNZ/Ndig
	Mdim    int     // maximum nonzeros in a row
	Adim    float64 // average nonzeros per row: NNZ/M
	Vdim    float64 // variance of per-row nonzero counts
	Density float64 // NNZ/(M·N)
}

// Extract computes the nine Table IV parameters from any matrix in a single
// pass over its rows.
func Extract(m sparse.Matrix) Features {
	var e Extractor
	return e.Extract(m)
}

// Extractor is a reusable feature extractor: it owns the per-call
// workspaces Extract needs (the diagonal-occupancy bitmap, the per-row
// counts, a row cursor), so hot paths that extract features repeatedly —
// the scheduler's choose path, the serve layer's batch endpoint — run
// allocation-free after warmup. An Extractor is not safe for concurrent
// use; pool instances instead.
type Extractor struct {
	diag []bool
	dims []int
	cols []int32 // per-column nonzero counts, for Touched
	v    sparse.Vector
}

// Extract computes the nine Table IV parameters, reusing the extractor's
// workspaces.
func (e *Extractor) Extract(m sparse.Matrix) Features {
	rows, cols := m.Dims()
	f := Features{M: rows, N: cols}
	if rows == 0 || cols == 0 {
		return f
	}
	diag := e.growDiag(rows + cols - 1) // diagonal o = j-i+rows-1
	dims := e.growDims(rows)
	v := e.v
	for i := 0; i < rows; i++ {
		v = m.RowTo(v, i)
		dims[i] = v.NNZ()
		f.NNZ += int64(v.NNZ())
		if v.NNZ() > f.Mdim {
			f.Mdim = v.NNZ()
		}
		for _, j := range v.Index {
			diag[int(j)-i+rows-1] = true
		}
	}
	for _, occupied := range diag {
		if occupied {
			f.Ndig++
		}
	}
	e.v = v
	return finish(f, dims)
}

// Triplets computes the nine Table IV parameters in one pass over a
// builder's canonical triplets — bit for bit what Extract reports for the
// CSR they build, without building it — together with the index of the
// first longest row (the row ELL's padding is set by).
func (e *Extractor) Triplets(t sparse.Triplets) (f Features, longest int) {
	rows, cols := t.Rows, t.Cols
	f = Features{M: rows, N: cols, NNZ: int64(len(t.Row))}
	if rows == 0 || cols == 0 {
		return f, 0
	}
	diag := e.growDiag(rows + cols - 1) // diagonal o = j-i+rows-1
	dims := e.growDims(rows)
	clear(dims) // only occupied rows are written below
	// A row is one run of equal row indices: its length is where the next
	// run starts minus where it did.
	shift, row, start := int32(rows-1), int32(0), 0
	for k, i := range t.Row {
		if i != row {
			dims[row] = k - start
			row, start = i, k
		}
		diag[t.Col[k]-i+shift] = true
	}
	dims[row] = len(t.Row) - start
	for _, occupied := range diag {
		if occupied {
			f.Ndig++
		}
	}
	for i, d := range dims {
		if d > f.Mdim {
			f.Mdim, longest = d, i
		}
	}
	return finish(f, dims), longest
}

// Touched is the expected number of stored elements a column-driven product
// A·x reads when x is a row of A drawn uniformly: Σ_j nnz_j² / M over the
// column counts nnz_j, since column j is in a random row's support with
// probability nnz_j / M and costs nnz_j to walk. It is not a Table IV
// parameter: it prices the column dataflow's cost row and nothing else, so
// it is a pass of its own, which only a decision that ranks that row pays.
func (e *Extractor) Touched(t sparse.Triplets) float64 {
	if t.Rows == 0 {
		return 0
	}
	counts := e.growCols(t.Cols)
	for _, j := range t.Col {
		counts[j]++
	}
	var squares int64
	for _, c := range counts {
		squares += int64(c) * int64(c)
	}
	return float64(squares) / float64(t.Rows)
}

// finish derives the parameters that are arithmetic over the counts — Adim,
// Vdim, Density, Dnnz — from M, N, NNZ, Ndig and the per-row nonzero counts.
// It is the one copy of that arithmetic: Extract, Triplets and
// Accumulator.ParseLIBSVM all end here, which is what makes their
// floating-point results carry the same bits.
func finish(f Features, dims []int) Features {
	f.Adim = float64(f.NNZ) / float64(f.M)
	for _, d := range dims {
		delta := float64(d) - f.Adim
		f.Vdim += delta * delta
	}
	f.Vdim /= float64(f.M)
	f.Density = float64(f.NNZ) / (float64(f.M) * float64(f.N))
	if f.Ndig > 0 {
		f.Dnnz = float64(f.NNZ) / float64(f.Ndig)
	}
	return f
}

// growDiag returns a zeroed n-length bitmap, reusing capacity.
func (e *Extractor) growDiag(n int) []bool {
	if cap(e.diag) < n {
		e.diag = make([]bool, n)
		return e.diag
	}
	e.diag = e.diag[:n]
	clear(e.diag)
	return e.diag
}

// growCols returns a zeroed n-length per-column count buffer, reusing
// capacity.
func (e *Extractor) growCols(n int) []int32 {
	if cap(e.cols) < n {
		e.cols = make([]int32, n)
		return e.cols
	}
	e.cols = e.cols[:n]
	clear(e.cols)
	return e.cols
}

// growDims returns an n-length per-row count buffer, reusing capacity.
// Every slot is overwritten by the extraction pass, so no zeroing.
func (e *Extractor) growDims(n int) []int {
	if cap(e.dims) < n {
		e.dims = make([]int, n)
	}
	e.dims = e.dims[:n]
	return e.dims
}

// String renders the features as one aligned line matching Table V's column
// order.
func (f Features) String() string {
	return fmt.Sprintf("M=%d N=%d nnz=%d ndig=%d dnnz=%.2f mdim=%d adim=%.2f vdim=%.3g density=%.3f",
		f.M, f.N, f.NNZ, f.Ndig, f.Dnnz, f.Mdim, f.Adim, f.Vdim, f.Density)
}

// RelErr returns the relative error |got−want|/max(|want|,1) used when
// comparing generated clones against the paper's Table V targets.
func RelErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1)
}
