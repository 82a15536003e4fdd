package sparse

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// allBuilt materializes b in every format plus HYB.
func allBuilt(t testing.TB, b *Builder) []Matrix {
	t.Helper()
	var out []Matrix
	for _, f := range AllFormats {
		m, err := b.Build(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		out = append(out, m)
	}
	return append(out, NewHYB(b, 0))
}

// TestBuilderAppendDropsStaleCaches: a Build between Append and Shape, or an
// Append after a Build, must see the triplets as they are now. Add and Shape
// always dropped the cached canonical form and matrices; Append did not, so
// the Build below answered with the matrix cached before the last triplet —
// and a canonical form that aliases the triplet arrays would have been read
// half-overwritten.
func TestBuilderAppendDropsStaleCaches(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Reset(1, 1)
	b.Append(0, 0, 1)
	b.Append(1, 2, 2)
	b.Shape(3, 4)
	before := b.MustBuild(CSR)
	if before.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", before.NNZ())
	}
	b.Append(2, 3, 5) // in range for 3×4: no Shape needed
	want := NewBuilder(3, 4)
	want.Add(0, 0, 1)
	want.Add(1, 2, 2)
	want.Add(2, 3, 5)
	for _, f := range AllFormats {
		got := b.MustBuild(f)
		if got == before {
			t.Fatalf("%v: Build returned the matrix cached before the last Append", f)
		}
		if !Equal(got, want.MustBuild(f)) {
			t.Fatalf("%v: content differs from the triplets appended so far", f)
		}
	}
	if !Equal(NewHYB(b, 0), want.MustBuild(CSR)) {
		t.Fatal("HYB: content differs from the triplets appended so far")
	}
	// And the other way round: out-of-order appends leave the fast path.
	b.Append(0, 2, 7)
	want.Add(0, 2, 7)
	if !Equal(b.MustBuild(COO), want.MustBuild(COO)) {
		t.Fatal("COO: content differs after an out-of-order Append")
	}
}

// TestConstructorsKeepNothing is the no-aliasing proof canonical() rests on:
// when the triplets are already canonical it hands the builder's own arrays
// to the constructors, so every one of them must copy what it keeps. Build
// everything through that path, then scribble over the arrays and refill the
// builder: the matrices must not change.
func TestConstructorsKeepNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomBuilder(rng, 37, 23, 0.2)
	r, _, _ := b.canonical()
	if len(r) == 0 || &r[0] != &b.r[0] {
		t.Fatal("an in-order, duplicate-free, zero-free fill must take the aliasing path")
	}
	built := allBuilt(t, b)
	want := make([][]float64, len(built))
	for i, m := range built {
		want[i] = ToDense(m)
	}
	for k := range b.r {
		b.r[k], b.c[k], b.v[k] = 0, 0, -1
	}
	b.Reset(37, 23)
	for k := 0; k < 200; k++ {
		b.Add(rng.Intn(37), rng.Intn(23), rng.NormFloat64())
	}
	allBuilt(t, b)
	for i, m := range built {
		got := ToDense(m)
		for k := range got {
			if got[k] != want[i][k] {
				t.Fatalf("matrix %d (%v) changed at element %d after its builder was refilled", i, m.Format(), k)
			}
		}
	}
}

// fillInOrder streams rows of the given lengths through AddRow, the way
// Convert, SamplesToMatrix and the shrinking solver fill a builder.
func fillInOrder(lens []int, cols int) *Builder {
	b := NewBuilder(len(lens), cols)
	var row Vector
	for i, n := range lens {
		row = row.Reset(cols)
		for j := 0; j < n; j++ {
			row = row.Append(int32(j), float64(i+j+1))
		}
		b.AddRow(i, row)
	}
	return b
}

// heapBytes reports the bytes fn allocates.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuilderFillAllocs is the allocation contract of the builder
// (DESIGN §3). An in-order AddRow fill allocates at most twice the bytes it
// ends up holding — append's own 1.25× growth allocates about five times —
// whether the rows are all alike or one in ten is ten times longer; a fill
// that starts with its longest rows, the worst case for extrapolating from
// the mean so far, never holds more than five times what it stores; and
// Build of an already-canonical builder allocates only the matrix, not a
// second copy of the triplets.
func TestBuilderFillAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	const rows, cols, tripletBytes = 2000, 600, 4 + 4 + 8
	uniform, skewed, longFirst := make([]int, rows), make([]int, rows), make([]int, rows)
	rng := rand.New(rand.NewSource(9))
	for i := range uniform {
		uniform[i] = 20
		// One row in five empty, one in ten ten times longer than the rest.
		switch {
		case rng.Intn(10) == 0:
			skewed[i] = 50 + rng.Intn(110)
		case rng.Intn(5) > 0:
			skewed[i] = 5 + rng.Intn(11)
		}
		longFirst[i] = 2
	}
	longFirst[0], longFirst[1] = 600, 600
	for _, tc := range []struct {
		name  string
		lens  []int
		limit float64 // allocated bytes ÷ stored bytes
	}{
		{"uniform", uniform, 2},
		{"skewed", skewed, 2},
	} {
		var b *Builder
		got := heapBytes(func() { b = fillInOrder(tc.lens, cols) })
		held := uint64(b.Len()) * tripletBytes
		if float64(got) > tc.limit*float64(held) {
			t.Errorf("%s: filling allocated %d bytes to hold %d (%.2f×), want at most %v×",
				tc.name, got, held, float64(got)/float64(held), tc.limit)
		}
	}
	if b := fillInOrder(longFirst, cols); cap(b.r) > 5*b.Len() {
		t.Errorf("long rows first: capacity %d for %d triplets, want at most 5×", cap(b.r), b.Len())
	}

	b := fillInOrder(uniform, cols)
	csr := uint64(rows+1)*8 + uint64(b.Len())*(4+8)
	if got := heapBytes(func() { b.MustBuild(CSR) }); got > csr+csr/16 { // size classes round up
		t.Errorf("Build(CSR) of a canonical builder allocated %d bytes, the matrix itself is %d", got, csr)
	}
	if got := testing.AllocsPerRun(10, func() { b.MustBuild(CSR) }); got != 0 {
		t.Errorf("a repeated Build allocated %v objects, want 0", got)
	}
}

// FuzzBuilderCanonical: whatever the triplets — shuffled, duplicated,
// zero-valued, summing to zero — every format plus HYB built from them as
// given, from a pre-sorted copy (which takes the sort-free paths, aliasing
// when nothing needs dropping) and from a reference that merges by hand must
// be element-for-element equal, and must stay so after the builders are Reset
// and refilled, which proves no matrix kept a view of its builder's arrays.
func FuzzBuilderCanonical(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 5, 0, 1, 7, 1, 0, 9}, uint8(2), uint8(2))             // in order: aliases
	f.Add([]byte{1, 1, 3, 0, 0, 4, 1, 1, 0xfd, 0, 1, 0}, uint8(2), uint8(2)) // shuffled, sums to zero, explicit zero
	f.Add([]byte{2, 3, 1, 2, 3, 1, 2, 3, 1, 0, 0, 0}, uint8(3), uint8(4))    // triplicate
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 2, 2, 1, 0, 3}, uint8(2), uint8(3))    // sorted with a zero
	f.Fuzz(func(t *testing.T, data []byte, rows8, cols8 uint8) {
		rows, cols := int(rows8%12)+1, int(cols8%12)+1
		type triplet struct {
			r, c int
			v    float64
		}
		var ts []triplet
		for ; len(data) >= 3; data = data[3:] {
			// Small integer values: sums are exact, so order cannot matter.
			ts = append(ts, triplet{int(data[0]) % rows, int(data[1]) % cols, float64(int8(data[2]))})
		}
		asGiven, sorted := NewBuilder(rows, cols), NewBuilder(rows, cols)
		dense := make([]float64, rows*cols)
		for _, e := range ts {
			asGiven.Add(e.r, e.c, e.v)
			dense[e.r*cols+e.c] += e.v
		}
		byCell := append([]triplet(nil), ts...)
		sort.SliceStable(byCell, func(i, j int) bool {
			if byCell[i].r != byCell[j].r {
				return byCell[i].r < byCell[j].r
			}
			return byCell[i].c < byCell[j].c
		})
		for _, e := range byCell {
			sorted.Add(e.r, e.c, e.v)
		}
		merged := NewBuilder(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if v := dense[i*cols+j]; v != 0 {
					merged.Add(i, j, v)
				}
			}
		}
		if r, _, _ := merged.canonical(); len(r) > 0 && &r[0] != &merged.r[0] {
			t.Fatal("a row-major, duplicate-free, zero-free fill did not take the aliasing path")
		}

		var all []Matrix
		for _, b := range []*Builder{asGiven, sorted, merged} {
			all = append(all, allBuilt(t, b)...)
		}
		nnz := merged.Len()
		check := func(when string) {
			for i, m := range all {
				if m.NNZ() != nnz {
					t.Fatalf("%s: matrix %d (%v) has %d nonzeros, want %d", when, i, m.Format(), m.NNZ(), nnz)
				}
				got := ToDense(m)
				for k := range dense {
					if got[k] != dense[k] {
						t.Fatalf("%s: matrix %d (%v) element %d = %v, want %v", when, i, m.Format(), k, got[k], dense[k])
					}
				}
			}
		}
		check("built")
		for _, b := range []*Builder{asGiven, sorted, merged} {
			rowBlocksMatch(t, b, dense)
		}
		for _, b := range []*Builder{asGiven, sorted, merged} {
			for k := range b.r {
				b.r[k], b.c[k], b.v[k] = 0, 0, -99
			}
			b.Reset(rows, cols)
			b.Add(rows-1, cols-1, 42)
			allBuilt(t, b)
		}
		check("after Reset and refill")
	})
}

// rowBlocksMatch holds the triplet view and every format's row blocks to the
// dense reference: row i of the view, and rows [lo, hi) built on their own —
// cut from the cached full CSR where there is one — must hold exactly the
// reference's rows, re-based to start at row 0.
func rowBlocksMatch(t testing.TB, b *Builder, dense []float64) {
	t.Helper()
	rows, cols := b.Dims()
	tr := b.Triplets()
	var v Vector
	for i := 0; i < rows; i++ {
		v = tr.RowTo(v, i)
		got := make([]float64, cols)
		v.ScatterInto(got)
		for j, x := range got {
			if x != dense[i*cols+j] {
				t.Fatalf("Triplets.RowTo(%d): column %d is %v, want %v", i, j, x, dense[i*cols+j])
			}
		}
	}
	for _, span := range [][2]int{{0, rows}, {0, (rows + 1) / 2}, {rows / 2, rows}, {rows / 3, rows/3 + 1}} {
		lo, hi := span[0], span[1]
		for _, f := range AllFormats {
			m, err := b.BuildRows(f, lo, hi)
			if err != nil {
				t.Fatalf("BuildRows(%v, %d, %d): %v", f, lo, hi, err)
			}
			if r, c := m.Dims(); r != hi-lo || c != cols || m.Format() != f {
				t.Fatalf("BuildRows(%v, %d, %d) is a %dx%d %v", f, lo, hi, r, c, m.Format())
			}
			if err := ValidateMatrix(m); err != nil {
				t.Fatalf("BuildRows(%v, %d, %d): %v", f, lo, hi, err)
			}
			got, want := ToDense(m), dense[lo*cols:hi*cols]
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("BuildRows(%v, %d, %d): element %d is %v, want %v", f, lo, hi, k, got[k], want[k])
				}
			}
		}
	}
	if _, err := b.BuildRows(CSR, 0, rows+1); err == nil {
		t.Fatal("BuildRows past the last row did not fail")
	}
}

// TestBuildRows drives rowBlocksMatch on a matrix large enough to have
// interior blocks, before any full build exists (every block comes from the
// triplets) and after (the CSR block is cut from the cached full CSR, whose
// arrays it must share rather than copy).
func TestBuildRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := randomBuilder(rng, 41, 29, 0.15)
	dense := ToDense(b.MustBuild(DEN))
	fresh := NewBuilder(41, 29)
	for i := 0; i < 41; i++ {
		for j := 0; j < 29; j++ {
			if x := dense[i*29+j]; x != 0 {
				fresh.Add(i, j, x)
			}
		}
	}
	rowBlocksMatch(t, fresh, dense)
	full := fresh.MustBuild(CSR).(*CSRMatrix)
	rowBlocksMatch(t, fresh, dense)
	block, err := fresh.BuildRows(CSR, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if view := block.(*CSRMatrix); view.NNZ() == 0 || &view.val[0] != &full.val[full.ptr[10]] {
		t.Fatal("a CSR block of a builder with a cached full CSR must share its arrays")
	}
	if want := full.ptr[30] - full.ptr[10]; int64(block.NNZ()) != want {
		t.Fatalf("block holds %d nonzeros, rows 10..29 of the full matrix hold %d", block.NNZ(), want)
	}
}

// TestTripletCSRRows: a CSR block viewed from the triplets is BuildRows'
// copy to the last array element, shares the triplets' arrays instead of
// copying them, and costs only its row pointers and itself.
func TestTripletCSRRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b := randomBuilder(rng, 41, 29, 0.15)
	tr := b.Triplets()
	for _, span := range [][2]int{{0, 41}, {0, 1}, {10, 30}, {40, 41}} {
		lo, hi := span[0], span[1]
		view := tr.CSRRows(lo, hi)
		copied, err := b.BuildRows(CSR, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(view, copied) {
			t.Fatalf("rows [%d, %d): view %+v, BuildRows %+v", lo, hi, view, copied)
		}
		if klo, _ := tr.Span(lo, hi); view.NNZ() > 0 && &view.val[0] != &tr.Val[klo] {
			t.Fatalf("rows [%d, %d): the view copied the triplets' values", lo, hi)
		}
	}
	if n := testing.AllocsPerRun(10, func() { tr.CSRRows(10, 30) }); n != 2 {
		t.Fatalf("a viewed block allocates %v objects, want 2: the matrix and its row pointers", n)
	}
}

// TestBuildDIAOverCapReturnsNilMatrix: Build returned newDIA's nil
// *DIAMatrix through the Matrix interface, so a DIA build over the memory cap
// came back as an error together with a matrix that was not nil — and callers
// that keep whatever Build hands them (core's usable) kept it.
func TestBuildDIAOverCapReturnsNilMatrix(t *testing.T) {
	const n = 40000
	rng := rand.New(rand.NewSource(2))
	b := NewBuilder(n, n)
	for k := 0; k < 4000; k++ { // about as many diagonals, each of stride n
		b.Add(rng.Intn(n), rng.Intn(n), 1)
	}
	m, err := b.Build(DIA)
	if err == nil {
		t.Fatalf("a %dx%d scattered fill built as DIA: %d diagonals", n, n, len(m.(*DIAMatrix).offsets))
	}
	if m != nil {
		t.Fatalf("Build(DIA) failed with %q and still returned a %T", err, m)
	}
}
