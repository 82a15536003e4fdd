package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// diffLIBSVM holds both readers over the tokenizer to the legacy route on
// one input. acc and pooled are reused across inputs, as the serve scratch
// reuses them across requests, so state leaking from one parse into the
// next shows up here too.
func diffLIBSVM(t *testing.T, acc *Accumulator, pooled *sparse.Builder, in string) {
	t.Helper()
	wantSamples, wantN, wantErr := legacyParseLIBSVM(strings.NewReader(in))
	samples, n, err := ParseLIBSVM(strings.NewReader(in))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseLIBSVM(%q) error %v, legacy %v", in, err, wantErr)
	}
	if n != wantN || len(samples) != len(wantSamples) {
		t.Fatalf("ParseLIBSVM(%q): %d samples, n=%d; legacy %d, n=%d", in, len(samples), n, len(wantSamples), wantN)
	}
	for i, s := range samples {
		w := wantSamples[i]
		if math.Float64bits(s.Label) != math.Float64bits(w.Label) || !sameVector(s.Features, w.Features) {
			t.Fatalf("ParseLIBSVM(%q): sample %d is %+v, legacy %+v", in, i, s, w)
		}
	}

	f, n, err := acc.ParseLIBSVM([]byte(in), pooled)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Accumulator(%q) error %v, legacy %v", in, err, wantErr)
	}
	wantRows := len(wantSamples)
	if f.M != wantRows || n != wantN {
		t.Fatalf("Accumulator(%q): %d rows, n=%d; legacy %d, n=%d", in, f.M, n, wantRows, wantN)
	}
	if wantRows == 0 {
		if f != (Features{}) {
			t.Fatalf("Accumulator(%q): no rows, yet features %+v", in, f)
		}
		return
	}
	if wantRows+wantN > 1<<22 {
		// Extract sizes its diagonal bitmap by the declared shape (2 GiB for
		// the largest legal index): too much for a test, so a shape this
		// large is held to the samples' own counts instead.
		var nnz int64
		for _, s := range wantSamples {
			nnz += int64(s.Features.NNZ())
		}
		if f.N != wantN || f.NNZ != nnz || int64(pooled.Len()) != nnz {
			t.Fatalf("Accumulator(%q): %+v with %d triplets; legacy n=%d nnz=%d", in, f, pooled.Len(), wantN, nnz)
		}
		return
	}
	wantB, wantF := legacyFeatures(wantSamples, wantN)
	if !sameFeatureBits(f, wantF) {
		t.Fatalf("Accumulator(%q):\n one-pass %+v\n legacy   %+v", in, f, wantF)
	}
	var ext Extractor
	if tf, _ := ext.Triplets(pooled.Triplets()); !sameFeatureBits(tf, wantF) {
		t.Fatalf("Triplets(%q):\n triplets %+v\n legacy   %+v", in, tf, wantF)
	}
	got, want := pooled.MustBuild(sparse.CSR), wantB.MustBuild(sparse.CSR)
	if gr, gc := got.Dims(); gr != wantRows || gc != wantF.N {
		t.Fatalf("Accumulator(%q): builder is %dx%d, legacy %dx%d", in, gr, gc, wantRows, wantF.N)
	}
	var gv, wv sparse.Vector
	for i := 0; i < wantRows; i++ {
		if gv, wv = got.RowTo(gv, i), want.RowTo(wv, i); !sameVector(gv, wv) {
			t.Fatalf("Accumulator(%q): row %d is %+v, legacy %+v", in, i, gv, wv)
		}
	}
}

func sameVector(a, b sparse.Vector) bool {
	if a.Dim != b.Dim || len(a.Index) != len(b.Index) {
		return false
	}
	for k := range a.Index {
		if a.Index[k] != b.Index[k] || math.Float64bits(a.Value[k]) != math.Float64bits(b.Value[k]) {
			return false
		}
	}
	return true
}

func sameFeatureBits(a, b Features) bool {
	return a.M == b.M && a.N == b.N && a.NNZ == b.NNZ && a.Ndig == b.Ndig && a.Mdim == b.Mdim &&
		math.Float64bits(a.Dnnz) == math.Float64bits(b.Dnnz) &&
		math.Float64bits(a.Adim) == math.Float64bits(b.Adim) &&
		math.Float64bits(a.Vdim) == math.Float64bits(b.Vdim) &&
		math.Float64bits(a.Density) == math.Float64bits(b.Density)
}

// matrixText renders b's matrix as LIBSVM rows, one per matrix row, empty
// rows as a bare label.
func matrixText(t *testing.T, b *sparse.Builder) string {
	t.Helper()
	m := b.MustBuild(sparse.CSR)
	rows, _ := m.Dims()
	samples := make([]Sample, rows)
	for i := range samples {
		samples[i] = Sample{Label: float64(1 - 2*(i%2)), Features: m.RowTo(sparse.Vector{}, i)}
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, samples); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAccumulatorMatchesLegacyRoute is the differential on matrices with
// the structure the scheduler cares about: the seven Table V clones the
// benchmark trains on, the parametric families behind Figures 2–4, and the
// textual corner cases a generator never writes.
func TestAccumulatorMatchesLegacyRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	must := func(b *sparse.Builder, err error) *sparse.Builder {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	inputs := map[string]string{
		"banded":           matrixText(t, must(Banded(300, 300, 9, 2400, rng))),
		"skewed":           matrixText(t, must(SkewRows(200, 400, 3000, 350, rng))),
		"dense":            matrixText(t, DenseMatrix(40, 60, rng)),
		"hypersparse":      matrixText(t, FromRowLengths([]int{3, 0, 5, 1}, 1<<20, rng)),
		"empty rows":       "1\n-1 3:1\n1\n\n-1\n",
		"explicit zeros":   "1 1:0 9:0\n-1 2:1 12:0\n1 5:-0\n",
		"only zeros":       "1 4:0\n",
		"comments blanks":  "# header\n\n  # indented comment\n+1 1:1 2:2\n\n-1 2:3\n#trailer",
		"crlf":             "+1 1:1 3:2\r\n-1 2:1\r\n\r\n+1 3:4\r\n",
		"no final newline": "+1 1:1\n-1 2:2",
		"spellings":        "+1 +3:1 007:0x1p-3 9:1e2\n-1.5e0 1:.5 2:5.\n",
		"wide spaces":      "1\u00a01:1\u20282:2\n\u30002 3:3\u0085\n",
		"largest index":    "+1 2147483647:1\n",
	}
	for _, name := range []string{"adult", "aloi", "mnist", "gisette", "trefethen", "connect-4", "sector"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = matrixText(t, d.MustGenerate(1))
	}
	var acc Accumulator
	pooled := sparse.NewBuilder(1, 1)
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) { diffLIBSVM(t, &acc, pooled, in) })
	}
}

// TestAccumulatorWorkspaceIgnoresDeclaredIndex: a row can declare the
// largest legal feature index in sixteen bytes; the accumulator's
// workspaces must be sized by those bytes, not by the index. (Extract's
// diagonal bitmap for this matrix is 2 GiB.)
func TestAccumulatorWorkspaceIgnoresDeclaredIndex(t *testing.T) {
	var acc Accumulator
	b := sparse.NewBuilder(1, 1)
	f, n, err := acc.ParseLIBSVM([]byte("+1 2147483647:1\n"), b)
	if err != nil {
		t.Fatal(err)
	}
	if f.M != 1 || f.N != math.MaxInt32 || n != math.MaxInt32 || f.NNZ != 1 || f.Ndig != 1 {
		t.Fatalf("features %+v, n=%d", f, n)
	}
	if len(acc.dims) != 1 || len(acc.diag) > 64 {
		t.Fatalf("workspaces hold %d row counts and %d diagonal slots for a 16-byte text", len(acc.dims), len(acc.diag))
	}
}

// TestLineTooLong: a line the legacy scanner could not buffer is the same
// read error on the byte path.
func TestLineTooLong(t *testing.T) {
	in := "1 1:1\n" + strings.Repeat(" ", maxLineBytes) + "\n"
	_, _, wantErr := legacyParseLIBSVM(strings.NewReader(in))
	if wantErr == nil {
		t.Fatal("legacy route accepted an over-long line")
	}
	if _, _, err := ParseLIBSVM(strings.NewReader(in)); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseLIBSVM: %v, legacy %v", err, wantErr)
	}
	var acc Accumulator
	if _, _, err := acc.ParseLIBSVM([]byte(in), sparse.NewBuilder(1, 1)); fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Accumulator: %v, legacy %v", err, wantErr)
	}
	// One byte shorter fits the scanner's buffer, newline included.
	in = strings.Repeat(" ", maxLineBytes-1) + "\n1 1:1"
	if _, _, err := legacyParseLIBSVM(strings.NewReader(in)); err != nil {
		t.Fatalf("legacy route: %v", err)
	}
	if f, _, err := acc.ParseLIBSVM([]byte(in), sparse.NewBuilder(1, 1)); err != nil || f.M != 1 {
		t.Fatalf("Accumulator: %+v, %v", f, err)
	}
}

// TestAccumulatorSteadyStateAllocs: once warm, parsing allocates nothing —
// no samples, no scanner buffer, no per-line strings or field slices.
func TestAccumulatorSteadyStateAllocs(t *testing.T) {
	in := []byte(matrixText(t, FromRowLengths([]int{5, 9, 0, 7, 3, 8}, 64, rand.New(rand.NewSource(3)))))
	var acc Accumulator
	b := sparse.NewBuilder(1, 1)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := acc.ParseLIBSVM(in, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm Accumulator.ParseLIBSVM allocates %.1f/op, want 0", allocs)
	}
}
