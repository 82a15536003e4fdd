package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Builder accumulates (row, col, value) triplets and materializes them in
// any storage format. Triplets may arrive in any order; duplicates at the
// same coordinate are summed, and entries that sum to exactly zero are
// dropped. Builder is the single entry point all generators and parsers
// use, so every format is constructed from one canonical element set.
type Builder struct {
	rows, cols int
	r, c       []int32
	v          []float64

	// lastRow is the row of the latest AddRow while every AddRow so far came
	// in ascending row order, and math.MaxInt once one did not: only an
	// in-order fill tells reserve how many rows are still to come.
	lastRow int

	// Cached canonical form: one sort serves every format built from the
	// same triplets. When the triplets are already canonical these alias
	// r/c/v themselves, which is safe because every constructor copies what
	// it keeps (TestConstructorsKeepNothing).
	canonR  []int32
	canonC  []int32
	canonV  []float64
	canonOK bool

	// Cached successful materializations per format. Matrices are
	// immutable, so repeated Build calls for the same format — every
	// Choose/measure cycle hits CSR at least twice — return the same
	// instance allocation-free.
	built    [len(AllFormats)]Matrix
	builtAny bool

	// cachedLen is len(r) when the two caches above were last emptied.
	// They are valid only while it still is: Add, AddRow and Append can
	// only grow the arrays, and Reset and Shape — the two calls that change
	// what an unchanged length means — empty the caches themselves. So no
	// fill method has to touch the caches per triplet.
	cachedLen int
}

// dropCaches forgets the canonical form and every built matrix.
func (b *Builder) dropCaches() {
	b.canonR, b.canonC, b.canonV, b.canonOK = nil, nil, nil, false
	if b.builtAny {
		b.built = [len(AllFormats)]Matrix{}
		b.builtAny = false
	}
	b.cachedLen = len(b.r)
}

// dropStale empties the caches if triplets arrived since they were filled.
func (b *Builder) dropStale() {
	if b.cachedLen != len(b.r) {
		b.dropCaches()
	}
}

// NewBuilder creates a builder for an rows×cols matrix. It panics if either
// dimension is non-positive, since no format can represent such a matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add appends one triplet. It panics on out-of-range coordinates; zero
// values are accepted and later elided.
func (b *Builder) Add(row, col int, val float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("sparse: triplet (%d,%d) outside %dx%d", row, col, b.rows, b.cols))
	}
	b.r = append(b.r, int32(row))
	b.c = append(b.c, int32(col))
	b.v = append(b.v, val)
}

// Reset empties the builder for reuse as an rows×cols matrix, keeping the
// triplet arrays' capacity. It is the arena-reuse entry point for batch
// parsers that build many matrices through one pooled builder. It panics
// on non-positive dimensions, like NewBuilder.
func (b *Builder) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	b.rows, b.cols = rows, cols
	b.r = b.r[:0]
	b.c = b.c[:0]
	b.v = b.v[:0]
	b.lastRow = 0
	b.dropCaches()
}

// Append adds one triplet without a range check. It is the fill path for
// single-pass parsers that learn the matrix shape only at end of input:
// Reset, Append every triplet, then Shape — which makes the range check for
// all of them at once — before any Build.
func (b *Builder) Append(row, col int32, val float64) {
	b.r = append(b.r, row)
	b.c = append(b.c, col)
	b.v = append(b.v, val)
}

// Shape sets the final dimensions of a builder filled through Append and
// drops whatever was cached under the old ones. It panics on non-positive
// dimensions or a triplet outside them, like NewBuilder and Add.
func (b *Builder) Shape(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	for k, row := range b.r {
		if col := b.c[k]; row < 0 || int(row) >= rows || col < 0 || int(col) >= cols {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) outside %dx%d", row, col, rows, cols))
		}
	}
	b.rows, b.cols = rows, cols
	b.dropCaches()
}

// AddRow appends an entire sparse row at once. Rows added in ascending
// order — the way every converter and parser fills a builder — let it size
// the triplet arrays for the rows still to come, see reserve.
func (b *Builder) AddRow(row int, v Vector) {
	if row < b.lastRow {
		b.lastRow = math.MaxInt
	} else {
		b.lastRow = row
	}
	if need := len(b.r) + len(v.Index); need > cap(b.r) && b.lastRow == row {
		b.reserve(row, need)
	}
	for k, col := range v.Index {
		b.Add(row, int(col), v.Value[k])
	}
}

const (
	// reserveStep is the ratio between successive reservations while the
	// extrapolated size is still far away. The capacity never exceeds
	// reserveStep times append's own 1.25x step over what is stored, so a
	// few long leading rows cannot reserve for a matrix that never arrives.
	reserveStep = 4
	// reserveSlack is the share added to the extrapolated remainder, so
	// that a mean below the final one does not cost a last regrowth: a
	// quarter covers rows whose lengths vary by 1.4 times their mean (one
	// row in ten is ten times longer) from a quarter of the rows on.
	reserveSlack = 4 // 1/4
)

// reserve grows the triplet arrays ahead of an in-order AddRow that needs
// room for need triplets in all: rows [0, row) hold what is stored so far,
// so the rows after this one are sized from their mean. While that size is
// more than reserveStep steps of append away, the arrays climb towards it on
// the ladder size/reserveStep^k, whose rungs add up to a third of the last
// one. append's own growth is 1.25x per step for large slices and allocates
// about five times the final size in all; this allocates about 1.6x. A
// reservation below append's step is left to append.
func (b *Builder) reserve(row, need int) {
	if row <= 0 || row >= b.rows {
		return
	}
	step := need + need/4
	rest := float64(len(b.r)) / float64(row) * float64(b.rows-row-1)
	want := need + int(rest*(1+1.0/reserveSlack))
	for want > reserveStep*step {
		want /= reserveStep
	}
	if want < step {
		return
	}
	b.r = append(make([]int32, 0, want), b.r...)
	b.c = append(make([]int32, 0, want), b.c...)
	b.v = append(make([]float64, 0, want), b.v...)
}

// Len reports the number of triplets added so far (before dedup).
func (b *Builder) Len() int { return len(b.r) }

// Dims reports the matrix dimensions the builder was created with. A
// zero-value Builder reports 0×0, which Build and the scheduler reject.
func (b *Builder) Dims() (rows, cols int) { return b.rows, b.cols }

// canonical returns the triplets sorted row-major with duplicates merged
// and zeros dropped, as parallel slices the caller must only read. The
// builder's own arrays are left untouched so it can be materialized into
// several formats; when they are already canonical — strictly row-major,
// so duplicate-free, and zero-free, which is what every converter and
// generator emits — they are returned themselves, clipped to their length,
// and nothing is allocated.
func (b *Builder) canonical() (r, c []int32, v []float64) {
	b.dropStale()
	if b.canonOK {
		return b.canonR, b.canonC, b.canonV
	}
	n := len(b.r)
	sorted, zeroFree := true, true
	for k := 0; k < n && sorted; k++ {
		zeroFree = zeroFree && b.v[k] != 0
		sorted = k == 0 || b.r[k] > b.r[k-1] || (b.r[k] == b.r[k-1] && b.c[k] > b.c[k-1])
	}
	if sorted && zeroFree {
		b.canonR, b.canonC, b.canonV, b.canonOK = b.r[:n:n], b.c[:n:n], b.v[:n:n], true
		return b.canonR, b.canonC, b.canonV
	}
	r = make([]int32, 0, n)
	c = make([]int32, 0, n)
	v = make([]float64, 0, n)
	if sorted {
		// Strictly ordered means duplicate-free: only zeros have to go.
		r, c, v = append(r, b.r...), append(c, b.c...), append(v, b.v...)
	} else {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			oi, oj := order[i], order[j]
			if b.r[oi] != b.r[oj] {
				return b.r[oi] < b.r[oj]
			}
			return b.c[oi] < b.c[oj]
		})
		for _, o := range order {
			if k := len(r) - 1; k >= 0 && r[k] == b.r[o] && c[k] == b.c[o] {
				v[k] += b.v[o]
				continue
			}
			r = append(r, b.r[o])
			c = append(c, b.c[o])
			v = append(v, b.v[o])
		}
	}
	// Elide entries that are (or summed to) zero.
	w := 0
	for k := range r {
		if v[k] == 0 {
			continue
		}
		r[w], c[w], v[w] = r[k], c[k], v[k]
		w++
	}
	b.canonR, b.canonC, b.canonV, b.canonOK = r[:w], c[:w], v[:w], true
	return b.canonR, b.canonC, b.canonV
}

// Triplets is a read-only view of a builder's canonical element set: the
// stored elements in row-major order, duplicate-free and zero-free, as three
// parallel slices. The rows of any range [lo, hi) are one contiguous
// sub-slice, which is what lets features, trial rows and row-block builds be
// read from it without materializing a format first. The slices alias the
// builder and are valid until its next triplet, Shape or Reset.
type Triplets struct {
	Rows, Cols int
	Row, Col   []int32
	Val        []float64
}

// Triplets returns the canonical element set. It sorts and merges at most
// once per fill, and not at all when the fill was already canonical.
func (b *Builder) Triplets() Triplets {
	r, c, v := b.canonical()
	return Triplets{Rows: b.rows, Cols: b.cols, Row: r, Col: c, Val: v}
}

// Span returns the element range [klo, khi) that rows [lo, hi) occupy.
func (t Triplets) Span(lo, hi int) (klo, khi int) {
	klo, _ = slices.BinarySearch(t.Row, int32(lo))
	n, _ := slices.BinarySearch(t.Row[klo:], int32(hi))
	return klo, klo + n
}

// RowTo appends the nonzeros of row i to dst, as Matrix.RowTo does.
func (t Triplets) RowTo(dst Vector, i int) Vector {
	dst = dst.Reset(t.Cols)
	klo, khi := t.Span(i, i+1)
	dst.Index = append(dst.Index, t.Col[klo:khi]...)
	dst.Value = append(dst.Value, t.Val[klo:khi]...)
	return dst
}

// Build materializes the accumulated triplets in the requested format.
// Successful materializations are cached until the next triplet, Shape or
// Reset, so re-requesting a format is allocation-free.
func (b *Builder) Build(f Format) (Matrix, error) {
	b.dropStale()
	if f >= 0 && int(f) < len(b.built) && b.built[f] != nil {
		return b.built[f], nil
	}
	m, err := b.BuildRows(f, 0, b.rows)
	if err == nil && f >= 0 && int(f) < len(b.built) {
		b.built[f] = m
		b.builtAny = true
	}
	return m, err
}

// BuildRows materializes rows [lo, hi) as an (hi−lo)×cols matrix in the
// requested format: the same constructors Build runs, over the contiguous
// sub-slice of the canonical triplets those rows occupy. A scheduler times
// candidates on such a block instead of building every format in full.
// Blocks are not cached; a CSR block is cut out of the cached full CSR when
// there is one, sharing its arrays.
func (b *Builder) BuildRows(f Format, lo, hi int) (Matrix, error) {
	if lo < 0 || hi > b.rows || lo >= hi {
		return nil, fmt.Errorf("sparse: rows [%d, %d) outside a %dx%d builder", lo, hi, b.rows, b.cols)
	}
	t := b.Triplets() // drops stale caches first
	if full, ok := b.built[CSR].(*CSRMatrix); ok && f == CSR {
		return full.rowBlock(lo, hi), nil
	}
	klo, khi := t.Span(lo, hi)
	rows, base := hi-lo, int32(lo)
	r, c, v := t.Row[klo:khi], t.Col[klo:khi], t.Val[klo:khi]
	switch f {
	case DEN:
		return newDense(rows, b.cols, base, r, c, v), nil
	case CSR:
		return newCSR(rows, b.cols, base, r, c, v), nil
	case COO:
		return newCOO(rows, b.cols, base, r, c, v), nil
	case ELL:
		return newELL(rows, b.cols, base, r, c, v), nil
	case DIA:
		// Not `return newDIA(...)`: a nil *DIAMatrix in a Matrix is not nil.
		m, err := newDIA(rows, b.cols, base, r, c, v)
		if err != nil {
			return nil, err
		}
		return m, nil
	case CSC:
		return newCSC(rows, b.cols, base, r, c, v), nil
	case BCSR:
		return newBCSR(rows, b.cols, base, r, c, v, defaultBlock), nil
	default:
		return nil, fmt.Errorf("sparse: cannot build format %v", f)
	}
}

// MustBuild is Build for callers with trusted input; it panics on error.
func (b *Builder) MustBuild(f Format) Matrix {
	m, err := b.Build(f)
	if err != nil {
		panic(err)
	}
	return m
}

// BuildAll materializes the same element set in every basic format,
// returned in BasicFormats order. DIA construction can fail when the matrix
// needs more diagonal lanes than memory sanity allows; such entries are nil
// and the error for the first failure is returned alongside the rest.
func (b *Builder) BuildAll() ([len(BasicFormats)]Matrix, error) {
	var out [len(BasicFormats)]Matrix
	var firstErr error
	for i, f := range BasicFormats {
		m, err := b.Build(f)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[i] = m
	}
	return out, firstErr
}
