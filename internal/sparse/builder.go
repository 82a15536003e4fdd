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

	// Storage recycling (see Recycle). kept[f] is the largest matrix of
	// format f built since the last Recycle; spare[f] is storage a Recycle
	// kept, which the next build of format f constructs into. lane is
	// newDIA's diagonal numbering. None of them is ever a view of the
	// triplet arrays: only constructors, which copy, make what is kept.
	kept  [len(AllFormats)]Matrix
	spare [len(AllFormats)]Matrix
	lane  []int32
}

// recycleBytes bounds what Recycle keeps: the capacity of the spares plus
// the DIA lane workspace. It is fitted, not a setting — see EXPERIMENTS.md
// "What a first contact allocates" for the sweep. Every format of the
// largest matrix of the serve_cold deck fits in it together (7.4 MB), so a
// first contact builds nothing fresh once its scratch has served one as
// large; a pooled builder that once served a larger matrix, up to the
// 512 MiB dense candidate the inline cap allows, gives it back to the
// collector instead of pinning it.
const recycleBytes = 16 << 20

// reuse returns s resliced to n elements when its capacity allows and a
// fresh slice otherwise. A constructor uses it for an array it overwrites
// in full, so the old contents do not matter.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is reuse for an array whose format relies on zeros — DEN and DIA
// data, pointer counts: a reused one is cleared.
func zeroed[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
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
// parsers that build many matrices through one pooled builder. Matrices
// built before a Reset stay valid: Reset never hands their storage to a
// later build (Recycle does). It panics on non-positive dimensions, like
// NewBuilder.
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

// Recycle is Reset(1, 1) for a builder none of whose matrices will be read
// again: the storage of every matrix built since the last Recycle is kept,
// the largest per format, as the spare the next build of that format
// constructs into — a DEN, DIA or ELL of any shape that fits, re-sliced and
// cleared where the format relies on zeros. What is kept, with the DIA lane
// workspace, stays within recycleBytes; the largest spares go first.
//
// The caller guarantees that nothing built since the last Recycle is
// reachable any more, by any goroutine: after Recycle such a matrix may be
// overwritten by the next build. A pooled request scratch calls it when the
// request is done; a builder that is never recycled keeps at most one matrix
// per format alive past a Reset and is otherwise unaffected.
func (b *Builder) Recycle() {
	b.Reset(1, 1)
	for f, m := range b.kept {
		if m != nil && heldBytes(m) > heldBytes(b.spare[f]) {
			b.spare[f] = m
		}
	}
	b.kept = [len(AllFormats)]Matrix{}
	var total int64
	for _, m := range b.spare {
		total += heldBytes(m)
	}
	for total > recycleBytes {
		big := 0
		for f, m := range b.spare {
			if heldBytes(m) > heldBytes(b.spare[big]) {
				big = f
			}
		}
		total -= heldBytes(b.spare[big])
		b.spare[big] = nil
	}
	if total+4*int64(cap(b.lane)) > recycleBytes {
		b.lane = nil
	}
}

// heldBytes is what keeping m's storage costs: its arrays' capacity, which
// is what a later build can re-slice, not their length. nil holds nothing.
func heldBytes(m Matrix) int64 {
	switch m := m.(type) {
	case *Dense:
		return 8 * int64(cap(m.data))
	case *CSRMatrix:
		return 8*int64(cap(m.ptr)) + 4*int64(cap(m.idx)) + 8*int64(cap(m.val))
	case *COOMatrix:
		return 4*int64(cap(m.row)+cap(m.col)) + 8*int64(cap(m.val))
	case *ELLMatrix:
		return 4*int64(cap(m.idx)) + 8*int64(cap(m.val))
	case *DIAMatrix:
		return 4*int64(cap(m.offsets)) + 8*int64(cap(m.data))
	case *CSCMatrix:
		return 4*int64(cap(m.ptr)) + 4*int64(cap(m.idx)) + 8*int64(cap(m.val))
	}
	return 0
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

// CSRRows returns rows [lo, hi) as a CSR matrix that views the triplets'
// column and value arrays, which hold CSR's in CSR's order: only its row
// pointers are new. It is valid as long as the triplets are, so it suits a
// block that is built, timed and dropped while the builder stands still, as
// a scheduler's measurement block is; Builder.BuildRows copies instead.
func (t Triplets) CSRRows(lo, hi int) *CSRMatrix {
	klo, khi := t.Span(lo, hi)
	ptr := make([]int64, hi-lo+1)
	rowPointers(ptr, t.Row[klo:khi], int32(lo))
	return &CSRMatrix{rows: hi - lo, cols: t.Cols, ptr: ptr, idx: t.Col[klo:khi:khi], val: t.Val[klo:khi:khi]}
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
// there is one, sharing its arrays. Full builds and blocks alike construct
// into the format's spare when a Recycle left one.
func (b *Builder) BuildRows(f Format, lo, hi int) (Matrix, error) {
	if lo < 0 || hi > b.rows || lo >= hi {
		return nil, fmt.Errorf("sparse: rows [%d, %d) outside a %dx%d builder", lo, hi, b.rows, b.cols)
	}
	if f < 0 || int(f) >= len(AllFormats) {
		return nil, fmt.Errorf("sparse: cannot build format %v", f)
	}
	t := b.Triplets() // drops stale caches first
	if full, ok := b.built[CSR].(*CSRMatrix); ok && f == CSR {
		return full.rowBlock(lo, hi), nil
	}
	klo, khi := t.Span(lo, hi)
	rows, base := hi-lo, int32(lo)
	r, c, v := t.Row[klo:khi], t.Col[klo:khi], t.Val[klo:khi]
	// The spare leaves its slot before anything is written into it, so a
	// constructor that panics half-way drops it instead of leaving it
	// half-valid.
	spare := b.spare[f]
	b.spare[f] = nil
	var m Matrix
	switch f {
	case DEN:
		s, _ := spare.(*Dense)
		m = newDense(s, rows, b.cols, base, r, c, v)
	case CSR:
		s, _ := spare.(*CSRMatrix)
		m = newCSR(s, rows, b.cols, base, r, c, v)
	case COO:
		s, _ := spare.(*COOMatrix)
		m = newCOO(s, rows, b.cols, base, r, c, v)
	case ELL:
		s, _ := spare.(*ELLMatrix)
		m = newELL(s, rows, b.cols, base, r, c, v)
	case DIA:
		s, _ := spare.(*DIAMatrix)
		d, lane, err := newDIA(s, b.lane, rows, b.cols, base, r, c, v)
		b.lane = lane
		if err != nil {
			// Refused before anything was written: the spare is intact. And
			// not `return d, err`: a nil *DIAMatrix in a Matrix is not nil.
			b.spare[f] = spare
			return nil, err
		}
		m = d
	case CSC:
		if len(v) > math.MaxInt32 {
			b.spare[f] = spare
			return nil, fmt.Errorf("sparse: %d elements overflow CSC's int32 column pointers", len(v))
		}
		s, _ := spare.(*CSCMatrix)
		m = newCSC(s, rows, b.cols, base, r, c, v)
	}
	if k := b.kept[f]; heldBytes(m) > heldBytes(k) {
		b.kept[f] = m
	}
	return m, nil
}

// MustBuild is Build for callers with trusted input; it panics on error.
func (b *Builder) MustBuild(f Format) Matrix {
	m, err := b.Build(f)
	if err != nil {
		panic(err)
	}
	return m
}
