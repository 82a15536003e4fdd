package sparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// recycleOps spells an input of FuzzBuilderRecycle: one opcode byte per
// step, each followed by its operands.
type recycleOps []byte

const (
	opFill    = iota // rows−1, cols−1, n, then n (row, col, int8 value) triplets
	opBuild          // format
	opRows           // format, lo, hi−lo−1 (both reduced into range)
	opRecycle        // —
	opOverCap        // a DIA refused by the cap, then the fill as it was
	numOps
)

func (o recycleOps) fill(rows, cols int, ts ...[3]int) recycleOps {
	o = append(o, opFill, byte(rows-1), byte(cols-1), byte(len(ts)))
	for _, t := range ts {
		o = append(o, byte(t[0]), byte(t[1]), byte(int8(t[2])))
	}
	return o
}

func (o recycleOps) build(fs ...Format) recycleOps {
	for _, f := range fs {
		o = append(o, opBuild, byte(f))
	}
	return o
}

func (o recycleOps) rows(f Format, lo, hi int) recycleOps {
	return append(o, opRows, byte(f), byte(lo), byte(hi-lo-1))
}

func (o recycleOps) recycle() recycleOps { return append(o, opRecycle) }
func (o recycleOps) overCap() recycleOps { return append(o, opOverCap) }

// overCapDIA fills b with one triplet per row of an n×n matrix, on n
// distinct diagonals (column 2i mod n): n lanes of stride n are over the DIA
// cap, and nothing else is built from it.
func overCapDIA(b *Builder) {
	const n = 11600
	b.Reset(n, n)
	for i := 0; i < n; i++ {
		b.Append(int32(i), int32(2*i%n), 1)
	}
}

// FuzzBuilderRecycle drives one builder through an arbitrary sequence of
// fills, builds of any format — in full or a row block —, DIA builds the cap
// refuses, and Recycles, and holds every matrix to a fresh builder's build of
// the same triplets: equal by ToDense and NNZ, valid, and equal array for
// array, so a value, index or padding slot left over in a recycled spare
// shows. Every matrix built since the last Recycle must still be what it was
// when that Recycle comes: only Recycle hands storage on. A refused DIA
// leaves the spare it did not use in place.
func FuzzBuilderRecycle(f *testing.F) {
	dense := [][3]int{{0, 0, 1}, {0, 1, 2}, {0, 2, 3}, {1, 0, 4}, {1, 1, 5}, {1, 2, 6}, {2, 0, 7}, {2, 2, 9}}
	f.Add([]byte(recycleOps{}.fill(3, 3, dense...).build(DEN).recycle().
		fill(3, 3, [3]int{1, 1, -5}).build(DEN))) // a DEN over one with nonzeros where it has zeros
	f.Add([]byte(recycleOps{}.fill(3, 6, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 3, 1}, [3]int{0, 5, 1}, [3]int{2, 4, 1}).build(ELL).recycle().
		fill(3, 6, [3]int{0, 2, 3}, [3]int{1, 1, 3}, [3]int{2, 0, 3}).build(ELL))) // a narrower ELL
	f.Add([]byte(recycleOps{}.fill(4, 4, [3]int{0, 3, 1}, [3]int{3, 0, 2}, [3]int{1, 1, 3}, [3]int{2, 3, 4}).build(DIA).recycle().
		fill(4, 4, [3]int{2, 2, 7}).build(DIA))) // fewer DIA diagonals
	f.Add([]byte(recycleOps{}.fill(2, 2, [3]int{1, 1, 1}).build(AllFormats[:]...).recycle().
		fill(12, 12, [3]int{11, 11, 2}, [3]int{0, 5, 3}, [3]int{7, 7, -1}).build(AllFormats[:]...))) // more rows than the spares hold
	f.Add([]byte(recycleOps{}.fill(5, 4, dense...).rows(DEN, 1, 3).rows(ELL, 0, 2).build(DEN, CSR, ELL).rows(CSR, 2, 5).
		recycle().fill(5, 4, [3]int{4, 3, 8}).rows(DEN, 3, 5).rows(ELL, 0, 5).build(ELL))) // row blocks, before and after full builds
	f.Add([]byte(recycleOps{}.fill(3, 3, dense...).build(DIA).recycle().fill(3, 3, [3]int{2, 0, 1}).
		overCap().build(DIA).overCap())) // a refused DIA between a Recycle and the build that uses its spare
	f.Add([]byte(recycleOps{}.fill(6, 6, dense...).build(AllFormats[:]...).fill(6, 6, [3]int{5, 5, 1}).build(AllFormats[:]...).
		recycle().fill(6, 6, [3]int{0, 0, 1}, [3]int{0, 0, -1}, [3]int{3, 2, 4}, [3]int{3, 2, 4}).build(AllFormats[:]...))) // Reset between builds; duplicates and a cancelled cell
	f.Fuzz(func(t *testing.T, ops []byte) {
		type held struct {
			m    Matrix
			want []float64
			what string
		}
		var (
			b          = NewBuilder(1, 1)
			rows, cols = 1, 1
			trips      [][3]int
			live       []held
			overCaps   int
		)
		refill := func() {
			b.Reset(rows, cols)
			for _, tr := range trips {
				b.Add(tr[0], tr[1], float64(tr[2]))
			}
		}
		check := func(what string, m Matrix, err error, want func(*Builder) (Matrix, error)) {
			ref := NewBuilder(rows, cols)
			for _, tr := range trips {
				ref.Add(tr[0], tr[1], float64(tr[2]))
			}
			fm, ferr := want(ref)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("%s: error %v, a fresh builder's %v", what, err, ferr)
			}
			if err != nil {
				return
			}
			if m.NNZ() != fm.NNZ() || !slices.Equal(ToDense(m), ToDense(fm)) {
				t.Fatalf("%s: %d nonzeros %v, a fresh builder's build has %d %v", what, m.NNZ(), ToDense(m), fm.NNZ(), ToDense(fm))
			}
			if err := ValidateMatrix(m); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !reflect.DeepEqual(m, fm) {
				t.Fatalf("%s: arrays differ from a fresh builder's build:\n%#v\n%#v", what, m, fm)
			}
			live = append(live, held{m, ToDense(m), what})
		}
		for len(ops) > 0 {
			op := ops[0] % numOps
			ops = ops[1:]
			switch op {
			case opFill:
				if len(ops) < 3 {
					return
				}
				rows, cols = int(ops[0]%12)+1, int(ops[1]%12)+1
				n := int(ops[2] % 40)
				ops = ops[3:]
				trips = trips[:0]
				for ; n > 0 && len(ops) >= 3; n-- {
					trips = append(trips, [3]int{int(ops[0]) % rows, int(ops[1]) % cols, int(int8(ops[2]))})
					ops = ops[3:]
				}
				refill()
			case opBuild:
				if len(ops) < 1 {
					return
				}
				f := AllFormats[int(ops[0])%len(AllFormats)]
				ops = ops[1:]
				m, err := b.Build(f)
				check(fmt.Sprintf("Build(%v) of %dx%d", f, rows, cols), m, err, func(r *Builder) (Matrix, error) { return r.Build(f) })
			case opRows:
				if len(ops) < 3 {
					return
				}
				f := AllFormats[int(ops[0])%len(AllFormats)]
				lo := int(ops[1]) % rows
				hi := lo + 1 + int(ops[2])%(rows-lo)
				ops = ops[3:]
				m, err := b.BuildRows(f, lo, hi)
				check(fmt.Sprintf("BuildRows(%v, %d, %d) of %dx%d", f, lo, hi, rows, cols), m, err,
					func(r *Builder) (Matrix, error) { return r.BuildRows(f, lo, hi) })
			case opRecycle:
				for _, h := range live {
					if !slices.Equal(ToDense(h.m), h.want) {
						t.Fatalf("%s changed before the Recycle that frees it", h.what)
					}
				}
				live = live[:0]
				b.Recycle()
				rows, cols, trips = 1, 1, trips[:0]
			case opOverCap:
				if overCaps++; overCaps > 2 {
					continue // each costs a 11 600-row fill
				}
				spare := b.spare[DIA]
				overCapDIA(b)
				if m, err := b.Build(DIA); err == nil || m != nil {
					t.Fatalf("an over-cap DIA built: %v, %v", m, err)
				}
				if b.spare[DIA] != spare {
					t.Fatal("a refused DIA build took the spare")
				}
				refill()
			}
		}
	})
}

// recycleFill refills b in row order with the rows×cols matrix whose row i
// holds per entries starting at column (7i mod cols), every third column
// on: one fixed shape, so every round after the first fits the spares. row
// is the caller's scratch, so that a refill allocates nothing.
func recycleFill(b *Builder, row *Vector, rows, cols, per int) {
	b.Reset(rows, cols)
	for i := 0; i < rows; i++ {
		*row = row.Reset(cols)
		for j := 0; j < per; j++ {
			*row = row.Append(int32((7*i+3*j)%cols), float64(i+j+1))
		}
		row.sortEntries()
		b.AddRow(i, *row)
	}
}

// TestBuilderRecycleAllocs is the allocation contract of Recycle (DESIGN §3):
// once a pooled builder has served a shape, Recycle, a refill of that shape
// and a build of every basic format allocate nothing — not the formats, not
// the triplets, not ELL's or DIA's workspaces. And a builder that built more
// than recycleBytes keeps no more than that: the largest spares go first.
func TestBuilderRecycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	b := NewBuilder(1, 1)
	var row Vector
	round := func() {
		b.Recycle()
		recycleFill(b, &row, 300, 200, 12)
		for _, f := range BasicFormats {
			if _, err := b.Build(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Errorf("Recycle + refill + Build of every basic format allocated %v objects, want 0", got)
	}
	// Only the spares are reused: a Reset between two builds keeps the first.
	first := b.MustBuild(DEN)
	b.Reset(300, 200)
	recycleFill(b, &row, 300, 200, 12)
	if b.MustBuild(DEN) == first {
		t.Fatal("a build after Reset reused the storage of a matrix built before it")
	}

	retained := func() int64 {
		n := 4 * int64(cap(b.lane))
		for _, m := range b.spare {
			n += heldBytes(m)
		}
		return n
	}
	// 1 500² doubles is 18 MB, over the bound on its own: DEN goes, the rest
	// of the round stays.
	b.Recycle()
	recycleFill(b, &row, 1500, 1500, 4)
	for _, f := range BasicFormats {
		if f != DIA {
			b.MustBuild(f)
		}
	}
	b.Recycle()
	if b.spare[DEN] != nil {
		t.Errorf("Recycle kept an %d-byte DEN, the bound is %d", heldBytes(b.spare[DEN]), recycleBytes)
	}
	if b.spare[CSR] == nil || b.spare[ELL] == nil {
		t.Error("Recycle dropped spares that fit under the bound")
	}
	if got := retained(); got > recycleBytes {
		t.Errorf("Recycle retained %d bytes, the bound is %d", got, recycleBytes)
	}
}

// TestRecycledStorageNeverAliasesTriplets extends TestConstructorsKeepNothing
// to storage that went round a Recycle: the refill takes the aliasing path
// (canonical() hands the constructors the builder's own arrays), so if a
// spare shared an array with the triplets, scribbling over them would show in
// a matrix built into it (DESIGN §3).
func TestRecycledStorageNeverAliasesTriplets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(b *Builder) {
		b.Reset(37, 23)
		for i := 0; i < 37; i++ {
			for j := 0; j < 23; j++ {
				if rng.Float64() < 0.2 {
					b.Add(i, j, rng.NormFloat64()+0.1)
				}
			}
		}
	}
	b := NewBuilder(1, 1)
	fill(b)
	allBuilt(t, b)
	for round := 0; round < 3; round++ {
		b.Recycle()
		fill(b)
		if r, _, _ := b.canonical(); len(r) == 0 || &r[0] != &b.r[0] {
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
		for i, m := range built {
			if !slices.Equal(ToDense(m), want[i]) {
				t.Fatalf("round %d: %v built into recycled storage changed when the triplets were overwritten", round, m.Format())
			}
		}
	}
}

// TestRecycleSurvivesFailedBuilds: a build that fails leaves a format's spare
// intact or drops it, never half-written. A DIA refused by the cap is turned
// down before it touches the spare, which stays; a constructor that panics
// half-way — here a DEN fed a column past its shape through Append without
// Shape — took the spare out of its slot first, so it is gone, and the next
// build of the format starts fresh and right.
func TestRecycleSurvivesFailedBuilds(t *testing.T) {
	b := NewBuilder(1, 1)
	var row Vector
	recycleFill(b, &row, 40, 30, 5)
	for _, f := range BasicFormats {
		b.MustBuild(f)
	}
	b.Recycle()
	dia, den := b.spare[DIA], b.spare[DEN]
	if dia == nil || den == nil {
		t.Fatal("Recycle kept no DIA or DEN spare")
	}
	overCapDIA(b)
	if _, err := b.Build(DIA); err == nil {
		t.Fatal("an over-cap DIA built")
	}
	if b.spare[DIA] != dia {
		t.Fatal("a refused DIA build dropped or replaced the spare")
	}

	b.Reset(4, 30)
	b.Append(0, 0, 1)
	b.Append(3, 40, 2) // column 40 of a 4×30 matrix: row 3's slot runs off the end
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("building a DEN from an out-of-range triplet did not panic")
			}
		}()
		b.Build(DEN)
	}()
	if b.spare[DEN] != nil {
		t.Fatal("a DEN build that panicked left its spare in the slot")
	}

	recycleFill(b, &row, 40, 30, 5)
	ref := NewBuilder(1, 1)
	recycleFill(ref, &row, 40, 30, 5)
	for _, f := range BasicFormats {
		if !reflect.DeepEqual(b.MustBuild(f), ref.MustBuild(f)) {
			t.Fatalf("%v after the failed builds differs from a fresh builder's", f)
		}
	}
}

// BenchmarkBuilderRecycle prices a build per basic format on one matrix of
// the serve_cold deck's middle size (4 500 nonzeros, 500×400) from a builder
// whose storage is fresh — Reset between rounds, as before Recycle existed
// — and from one that recycles it. Run with -benchmem: the fresh B/op is
// what a first contact allocated per format, the recycled one what it
// allocates now (EXPERIMENTS.md, "What a first contact allocates").
func BenchmarkBuilderRecycle(b *testing.B) {
	for _, f := range BasicFormats {
		for _, mode := range []string{"fresh", "recycled"} {
			b.Run(f.String()+"/"+mode, func(b *testing.B) {
				bld := NewBuilder(1, 1)
				var row Vector
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if mode == "recycled" {
						bld.Recycle()
					}
					recycleFill(bld, &row, 500, 400, 9)
					if _, err := bld.Build(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
