package sparse

import (
	"fmt"
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

	// Cached canonical form; invalidated by Add. BuildAll materializes
	// five formats from one sort instead of re-sorting per format.
	canonR []int32
	canonC []int32
	canonV []float64

	// Cached successful materializations per format, invalidated with the
	// canonical form. Matrices are immutable, so repeated Build calls for
	// the same format — every Choose/measure cycle hits CSR at least
	// twice — return the same instance allocation-free.
	built    [len(AllFormats)]Matrix
	builtAny bool
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
	b.canonR, b.canonC, b.canonV = nil, nil, nil
	if b.builtAny {
		b.built = [len(AllFormats)]Matrix{}
		b.builtAny = false
	}
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
	b.canonR, b.canonC, b.canonV = nil, nil, nil
	b.built = [len(AllFormats)]Matrix{}
	b.builtAny = false
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
	b.canonR, b.canonC, b.canonV = nil, nil, nil
	b.built = [len(AllFormats)]Matrix{}
	b.builtAny = false
}

// AddRow appends an entire sparse row at once.
func (b *Builder) AddRow(row int, v Vector) {
	for k, col := range v.Index {
		b.Add(row, int(col), v.Value[k])
	}
}

// Len reports the number of triplets added so far (before dedup).
func (b *Builder) Len() int { return len(b.r) }

// Dims reports the matrix dimensions the builder was created with. A
// zero-value Builder reports 0×0, which Build and the scheduler reject.
func (b *Builder) Dims() (rows, cols int) { return b.rows, b.cols }

// canonical sorts triplets row-major, merges duplicates, drops zeros, and
// returns the cleaned parallel slices. The builder is left untouched so it
// can be materialized into several formats.
func (b *Builder) canonical() (r, c []int32, v []float64) {
	if b.canonR != nil {
		return b.canonR, b.canonC, b.canonV
	}
	n := len(b.r)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Fast path: generators usually emit row-major already-unique
	// triplets; detect that in O(n) and skip the O(n log n) sort.
	sorted := true
	for k := 1; k < n; k++ {
		if b.r[k] < b.r[k-1] || (b.r[k] == b.r[k-1] && b.c[k] <= b.c[k-1]) {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(order, func(i, j int) bool {
			oi, oj := order[i], order[j]
			if b.r[oi] != b.r[oj] {
				return b.r[oi] < b.r[oj]
			}
			return b.c[oi] < b.c[oj]
		})
	}
	r = make([]int32, 0, n)
	c = make([]int32, 0, n)
	v = make([]float64, 0, n)
	for _, o := range order {
		if k := len(r) - 1; k >= 0 && r[k] == b.r[o] && c[k] == b.c[o] {
			v[k] += b.v[o]
			continue
		}
		r = append(r, b.r[o])
		c = append(c, b.c[o])
		v = append(v, b.v[o])
	}
	// Second pass: elide entries that are (or summed to) zero.
	w := 0
	for k := range r {
		if v[k] == 0 {
			continue
		}
		r[w], c[w], v[w] = r[k], c[k], v[k]
		w++
	}
	b.canonR, b.canonC, b.canonV = r[:w], c[:w], v[:w]
	return b.canonR, b.canonC, b.canonV
}

// Build materializes the accumulated triplets in the requested format.
// Successful materializations are cached until the next Add or Reset, so
// re-requesting a format is allocation-free.
func (b *Builder) Build(f Format) (Matrix, error) {
	if f >= 0 && int(f) < len(b.built) && b.built[f] != nil {
		return b.built[f], nil
	}
	m, err := b.build(f)
	if err == nil && f >= 0 && int(f) < len(b.built) {
		b.built[f] = m
		b.builtAny = true
	}
	return m, err
}

func (b *Builder) build(f Format) (Matrix, error) {
	r, c, v := b.canonical()
	switch f {
	case DEN:
		return newDense(b.rows, b.cols, r, c, v), nil
	case CSR:
		return newCSR(b.rows, b.cols, r, c, v), nil
	case COO:
		return newCOO(b.rows, b.cols, r, c, v), nil
	case ELL:
		return newELL(b.rows, b.cols, r, c, v), nil
	case DIA:
		return newDIA(b.rows, b.cols, r, c, v)
	case CSC:
		return newCSC(b.rows, b.cols, r, c, v), nil
	case BCSR:
		return newBCSR(b.rows, b.cols, r, c, v, defaultBlock), nil
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
