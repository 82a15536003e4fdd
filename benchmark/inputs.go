package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Every input is derived from the run's seed through streamRNG, one
// independent stream per purpose, so adding a draw to one generator never
// shifts another generator's inputs.
func streamRNG(seed int64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + int64(h>>1)))
}

// logUniform draws from [lo, hi] with equal mass per factor of size.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// matrix is one generated operand: the LIBSVM text a client sends and the
// features the server will extract from exactly that text.
type matrix struct {
	data  string
	feats dataset.Features
}

// libsvmText renders b as LIBSVM rows. Values carry five significant
// digits: the generators never emit |v| < 0.1, so no entry rounds to zero
// and the parsed matrix has the structure of b. (dataset.WriteLIBSVM prints
// every digit, which doubles a body and unties its size from its nnz; the
// workloads are specified by body size.)
// width is the largest column written plus one: the column count a parser
// will give the matrix.
func libsvmText(b *sparse.Builder) (text string, width int) {
	m := b.MustBuild(sparse.CSR)
	rows, _ := m.Dims()
	buf := make([]byte, 0, 14*m.NNZ()+2*rows)
	var row sparse.Vector
	for i := 0; i < rows; i++ {
		buf = append(buf, '1')
		row.Index, row.Value = row.Index[:0], row.Value[:0]
		row = m.RowTo(row, i)
		for k, idx := range row.Index {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(idx)+1, 10)
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, row.Value[k], 'g', 5, 64)
			width = max(width, int(idx)+1)
		}
		buf = append(buf, '\n')
	}
	return string(buf), width
}

// parseOperand is the server's own path from request text to features
// (serve.scheduleData / parsePairOperand): the harness keys, routes and
// replays with the values the server derives, not with the generator's.
func parseOperand(data string) (*sparse.Builder, dataset.Features, error) {
	samples, n, err := dataset.ParseLIBSVM(strings.NewReader(data))
	if err != nil {
		return nil, dataset.Features{}, err
	}
	b, _ := dataset.SamplesToMatrix(samples, n)
	csr, err := b.Build(sparse.CSR)
	if err != nil {
		return nil, dataset.Features{}, err
	}
	return b, dataset.Extract(csr), nil
}

// newMatrix renders b and derives the features the server will see. The
// features are structural, so when the text keeps b's column count they
// are b's own; only a matrix whose last columns are empty needs the parse.
func newMatrix(b *sparse.Builder) (matrix, error) {
	data, width := libsvmText(b)
	if _, cols := b.Dims(); width == cols {
		return matrix{data: data, feats: dataset.Extract(b.MustBuild(sparse.CSR))}, nil
	}
	_, f, err := parseOperand(data)
	return matrix{data: data, feats: f}, err
}

// cloneBuilder copies m's entries into a builder with no cached
// materializations: sparse.Builder memoizes every Build, so timing a
// build or a schedule on a reused builder would time a cache lookup.
func cloneBuilder(m sparse.Matrix) *sparse.Builder {
	rows, cols := m.Dims()
	b := sparse.NewBuilder(rows, cols)
	var row sparse.Vector
	for i := 0; i < rows; i++ {
		row.Index, row.Value = row.Index[:0], row.Value[:0]
		row = m.RowTo(row, i)
		b.AddRow(i, row)
	}
	return b
}

// Shapes are drawn from two generators. shape fixes the structure (rows,
// width, row lengths) and is the same for every seed; fill places the
// entries and draws their values and follows the run's seed. A class's
// cost is set by its structure, and Zipf traffic gives the few most
// popular classes a quarter of the ops, so letting the seed redraw the
// structure would make two seeds two different workloads (allocs_per_op
// moved by a third between seeds) instead of two samples of one.

// smallShape draws a sparse matrix whose LIBSVM text is about bytes long,
// with row count, width and row-length jitter varied so that draws land in
// different quantized shape classes.
func smallShape(shape, fill *rand.Rand, bytes float64) *sparse.Builder {
	nnz := max(int(bytes/11), 6)
	m := min(max(int(logUniform(shape, 3, 300)), 1), nnz)
	l := max(nnz/m, 1)
	n := max(int(logUniform(shape, 8, 4000)), 2*l)
	lens := make([]int, m)
	jitter := shape.Intn(l/2 + 1)
	for i := range lens {
		lens[i] = max(l-jitter/2+shape.Intn(jitter+1), 1)
	}
	return pinWidth(dataset.FromRowLengths(lens, n, fill))
}

// pinWidth puts an entry in the last column, so the LIBSVM text (whose
// width is the largest index written) keeps the builder's column count.
func pinWidth(b *sparse.Builder) *sparse.Builder {
	_, cols := b.Dims()
	b.Add(0, cols-1, 0.5)
	return b
}

// shapeRNG is the seed-independent generator of class k's structure; try
// counts the redraws a key collision cost.
func shapeRNG(stream string, k, try int) *rand.Rand {
	return streamRNG(0, fmt.Sprintf("%s/%d/%d", stream, k, try))
}

// maxRedraws bounds the structures tried for one class before giving up.
const maxRedraws = 50

// distinctShapes generates count matrices of about lo..hi bytes
// (log-uniform) whose cache keys under serverPolicy are pairwise different and
// absent from seen, which it extends. Distinct keys are what make "N shape
// classes" mean N cache entries and N ring owners. stream names the
// structure generator; fill follows the seed.
func distinctShapes(stream string, fill *rand.Rand, count int, lo, hi float64, seen map[string]bool) ([]matrix, error) {
	out := make([]matrix, 0, count)
	for k := 0; k < count; k++ {
		for try := 0; ; try++ {
			if try == maxRedraws {
				return nil, fmt.Errorf("inputs: %s class %d: no unused shape class in %d draws", stream, k, try)
			}
			shape := shapeRNG(stream, k, try)
			mx, err := newMatrix(smallShape(shape, fill, logUniform(shape, lo, hi)))
			if err != nil {
				return nil, err
			}
			if key := serve.Key(mx.feats, serverPolicy, 0); !seen[key] {
				seen[key] = true
				out = append(out, mx)
				break
			}
		}
	}
	return out, nil
}

// pairOperands draws A (m×k) and B (k×n) with about bytes of text in
// total. A's pinned width and B's k text rows keep the parsed inner
// dimensions equal.
func pairOperands(shape, fill *rand.Rand, bytes float64) (a, b *sparse.Builder) {
	nnz := max(int(bytes/22), 8)
	k := max(int(logUniform(shape, 8, 200)), 4)
	m := min(max(int(logUniform(shape, 4, 200)), 2), nnz)
	n := max(int(logUniform(shape, 8, 400)), 4)
	la := min(max(nnz/m, 1), k)
	lb := min(max(nnz/k, 1), n)
	return uniformRows(fill, m, k, la), uniformRows(fill, k, n, lb)
}

// uniformRows is an m×n matrix with l random nonzeros in every row, its
// width pinned.
func uniformRows(rng *rand.Rand, m, n, l int) *sparse.Builder {
	lens := make([]int, m)
	for i := range lens {
		lens[i] = l
	}
	return pinWidth(dataset.FromRowLengths(lens, n, rng))
}

// pair is one SpGEMM request's operands as the server will see them.
type pair struct {
	a, b matrix
}

func newPair(a, b *sparse.Builder) (pair, error) {
	ma, err := newMatrix(a)
	if err != nil {
		return pair{}, err
	}
	mb, err := newMatrix(b)
	if err != nil {
		return pair{}, err
	}
	if ma.feats.N != mb.feats.M {
		return pair{}, fmt.Errorf("inputs: pair inner dimensions %d and %d differ", ma.feats.N, mb.feats.M)
	}
	return pair{a: ma, b: mb}, nil
}

func distinctPairs(stream string, fill *rand.Rand, count int, lo, hi float64) ([]pair, error) {
	seen := map[string]bool{}
	out := make([]pair, 0, count)
	for k := 0; k < count; k++ {
		for try := 0; ; try++ {
			if try == maxRedraws {
				return nil, fmt.Errorf("inputs: %s pair %d: no unused pair class in %d draws", stream, k, try)
			}
			shape := shapeRNG(stream, k, try)
			p, err := newPair(pairOperands(shape, fill, logUniform(shape, lo, hi)))
			if err != nil {
				continue // the pinned entry cancelled to zero: redraw
			}
			if key := serve.PairKey(p.a.feats, p.b.feats, serverPolicy, 0); !seen[key] {
				seen[key] = true
				out = append(out, p)
				break
			}
		}
	}
	return out, nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of strings and ints always marshal
	}
	return raw
}

// The first-contact deck is a fixed log grid: every seed sends the same
// shapes with different entries, so run-to-run differences are noise and
// not a different mix of work.
var (
	coldNNZ     = []int{500, 1500, 4500, 13500, 40000}
	coldAspects = []float64{1.0 / 27, 1.0 / 9, 1.0 / 3, 1, 3, 9, 27}
	pairNNZ     = []int{150, 450, 1350}
	pairAspects = []float64{1.0 / 4, 1, 4}
)

// coldMaxCells bounds rows x cols of a deck matrix. The empirical policy
// measures the dense layout of every shape, so the dense footprint, not
// nnz, sets a first contact's cost: past this bound one request runs for
// seconds and the window holds too few ops to take a percentile from.
const coldMaxCells = 250_000

// coldShape builds one grid point: structure s of about nnz entries at
// rows/cols ratio aspect. ok=false marks an infeasible combination.
func coldShape(rng *rand.Rand, s string, nnz int, aspect float64, variant int) (*sparse.Builder, bool) {
	dims := func(cells float64) (m, n int) {
		m = max(int(math.Round(math.Sqrt(cells*aspect))), 2)
		n = max(int(math.Round(cells/float64(m))), 2)
		return m, n
	}
	floor := float64(nnz) / coldMaxCells // the sparsest this many entries may be
	switch s {
	case "uniform":
		density := math.Max([]float64{0.02, 0.1, 0.3}[variant%3], floor)
		m, n := dims(float64(nnz) / density)
		return uniformRows(rng, m, n, min(max(nnz/m, 1), n)), true
	case "banded":
		// The band spans a square core; the aspect stretches one side by
		// at most 3, so the core's side is bounded by the cell budget.
		stretch := math.Min(math.Max(aspect, 1/aspect), 3)
		side := int(math.Sqrt(coldMaxCells / stretch))
		ndig := max([]int{3, 9, 27}[variant%3], nnz/side+1)
		side = max(nnz/ndig, ndig+1)
		m, n := side, side
		if aspect > 1 {
			m = int(float64(side) * stretch)
		} else if aspect < 1 {
			n = int(float64(side) * stretch)
		}
		b, err := dataset.Banded(m, n, ndig, int64(nnz), rng)
		return b, err == nil
	case "skewed":
		m, n := dims(float64(nnz) / math.Max(0.05, floor))
		mdim := min(max(n/[]int{2, 8}[variant%2], 2), n)
		if nnz > m*mdim || mdim > nnz {
			return nil, false
		}
		b, err := dataset.SkewRows(m, n, int64(nnz), mdim, rng)
		return b, err == nil
	case "dense":
		m, n := dims(float64(nnz))
		return dataset.DenseMatrix(m, n, rng), true
	}
	return nil, false
}

// spaced reports whether point p lies more than radius from every point
// in kept, in the embedding the tuning history searches.
func spaced[P ~[7]float64 | ~[12]float64](p P, kept []P, radius float64) bool {
	for _, q := range kept {
		d2 := 0.0
		for i := 0; i < len(p); i++ {
			d2 += (p[i] - q[i]) * (p[i] - q[i])
		}
		if d2 <= radius*radius {
			return false
		}
	}
	return true
}

// coldMargin widens the history radius when spacing the deck, so that the
// small feature shifts between seeds never move two shapes within reach.
const coldMargin = 1.15

// coldMatrices walks the grid and keeps up to count shapes that the tuning
// history (radius core.DefaultHistoryRadius in dataset.Embed space) cannot
// answer for one another: each is a genuine first contact.
func coldMatrices(seed int64, count int) ([]matrix, error) {
	var out []matrix
	var kept [][dataset.EmbedDims]float64
	for variant := 0; variant < 3 && len(out) < count; variant++ {
		for _, nnz := range coldNNZ {
			for _, aspect := range coldAspects {
				for _, s := range []string{"uniform", "banded", "skewed", "dense"} {
					if len(out) == count {
						return out, nil
					}
					if s == "dense" && variant > 0 {
						continue // a dense block has no second variant
					}
					rng := streamRNG(seed, fmt.Sprintf("cold/%s/%d/%g/%d", s, nnz, aspect, variant))
					b, ok := coldShape(rng, s, nnz, aspect, variant)
					if !ok {
						continue
					}
					mx, err := newMatrix(b)
					if err != nil {
						return nil, err
					}
					if p := dataset.Embed(mx.feats); spaced(p, kept, coldMargin*core.DefaultHistoryRadius) {
						kept = append(kept, p)
						out = append(out, mx)
					}
				}
			}
		}
	}
	return out, nil
}

// coldPairs is the SpGEMM half of the deck: operand structures crossed
// over three sizes and three aspects, spaced beyond the pair history's
// radius in dataset.EmbedPair space.
func coldPairs(seed int64, count int) ([]pair, error) {
	var out []pair
	var kept [][dataset.PairEmbedDims]float64
	structures := [][2]string{{"uniform", "uniform"}, {"banded", "uniform"}, {"skewed", "uniform"}, {"uniform", "dense"}}
	for variant := 0; variant < 3 && len(out) < count; variant++ {
		for _, nnz := range pairNNZ {
			for _, aspect := range pairAspects {
				for _, st := range structures {
					if len(out) == count {
						return out, nil
					}
					rng := streamRNG(seed, fmt.Sprintf("coldpair/%s%s/%d/%g/%d", st[0], st[1], nnz, aspect, variant))
					a, ok := coldShape(rng, st[0], nnz, aspect, variant)
					if !ok {
						continue
					}
					ma, err := newMatrix(a)
					if err != nil {
						return nil, err
					}
					// B's row count is A's parsed width; its own width
					// follows the aspect the other way round.
					k := ma.feats.N
					n := max(int(float64(k)*aspect), 2)
					var b *sparse.Builder
					if st[1] == "dense" {
						b = dataset.DenseMatrix(k, min(n, max(nnz/k, 2)), rng)
					} else {
						b = uniformRows(rng, k, n, min(max(nnz/k, 1), n))
					}
					p, err := newPair(a, b)
					if err != nil {
						continue
					}
					if e := dataset.EmbedPair(p.a.feats, p.b.feats); spaced(e, kept, coldMargin*core.DefaultPairHistoryRadius) {
						kept = append(kept, e)
						out = append(out, p)
					}
				}
			}
		}
	}
	return out, nil
}
