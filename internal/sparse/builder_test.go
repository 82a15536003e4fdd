package sparse

import (
	"math/rand"
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
