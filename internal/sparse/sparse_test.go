package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// texec returns a pooled execution context that is closed when the test
// finishes.
func texec(t testing.TB, workers int, sched exec.Sched) *exec.Exec {
	t.Helper()
	e := exec.New(workers, sched)
	t.Cleanup(e.Close)
	return e
}

// randomBuilder fills an rows×cols builder with approximately density*rows*cols
// nonzeros drawn from rng.
func randomBuilder(rng *rand.Rand, rows, cols int, density float64) *Builder {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64()+0.1)
			}
		}
	}
	return b
}

// refMulVecSparse is the trivially correct dense reference for dst = A·x.
func refMulVecSparse(dense []float64, rows, cols int, x Vector) []float64 {
	xd := x.Dense()
	out := make([]float64, rows)
	for i := 0; i < rows; i++ {
		var sum float64
		for j := 0; j < cols; j++ {
			sum += dense[i*cols+j] * xd[j]
		}
		out[i] = sum
	}
	return out
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestFormatStringRoundTrip(t *testing.T) {
	for _, f := range AllFormats {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("round trip %v: got %v err %v", f, got, err)
		}
	}
	if _, err := ParseFormat("XYZ"); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if s := Format(42).String(); s != "Format(42)" {
		t.Fatalf("unknown format stringer: %q", s)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dims", func() { NewBuilder(0, 5) })
	mustPanic("negative dims", func() { NewBuilder(5, -1) })
	b := NewBuilder(3, 3)
	mustPanic("row out of range", func() { b.Add(3, 0, 1) })
	mustPanic("col out of range", func() { b.Add(0, -1, 1) })
}

func TestBuilderDeduplicatesAndDropsZeros(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 1, 2.0)
	b.Add(0, 1, 3.0) // duplicate: summed to 5
	b.Add(1, 2, 4.0)
	b.Add(1, 2, -4.0) // duplicate: sums to zero, dropped
	b.Add(1, 0, 0.0)  // explicit zero, dropped
	m := b.MustBuild(CSR)
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d, want 1", m.NNZ())
	}
	var v Vector
	v = m.RowTo(v, 0)
	if v.NNZ() != 1 || v.Index[0] != 1 || v.Value[0] != 5.0 {
		t.Fatalf("row 0 = %+v, want single entry (1, 5.0)", v)
	}
	v = m.RowTo(v, 1)
	if v.NNZ() != 0 {
		t.Fatalf("row 1 = %+v, want empty", v)
	}
}

func TestBuilderUnsortedInput(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(2, 3, 1)
	b.Add(0, 2, 2)
	b.Add(2, 0, 3)
	b.Add(1, 1, 4)
	b.Add(0, 0, 5)
	for _, f := range AllFormats {
		m, err := b.Build(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		var v Vector
		v = m.RowTo(v, 2)
		if v.NNZ() != 2 || v.Index[0] != 0 || v.Index[1] != 3 {
			t.Fatalf("%v: row 2 = %+v", f, v)
		}
	}
}

// TestBuilderShapeKnownLast: a pooled builder filled through Append and
// told its shape afterwards builds what NewBuilder + Add builds, forgets
// what it had cached under the previous shape, and still refuses a triplet
// outside the dimensions — at Shape, where they first exist.
func TestBuilderShapeKnownLast(t *testing.T) {
	want := NewBuilder(3, 5)
	b := NewBuilder(1, 1)
	b.Add(0, 0, 9)
	stale := b.MustBuild(CSR)
	b.Reset(1, 1)
	for _, e := range []struct {
		r, c int32
		v    float64
	}{{0, 1, 2}, {0, 4, 3}, {2, 0, 4}} {
		want.Add(int(e.r), int(e.c), e.v)
		b.Append(e.r, e.c, e.v)
	}
	b.Shape(3, 5)
	for _, f := range AllFormats {
		got, err := b.Build(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if got == stale {
			t.Fatalf("%v: Shape kept a matrix cached under the old dimensions", f)
		}
		if !Equal(got, want.MustBuild(f)) {
			t.Fatalf("%v: content differs from NewBuilder + Add", f)
		}
	}
	for name, bad := range map[string]func(){
		"row out of range": func() { b.Shape(2, 5) },
		"col out of range": func() { b.Shape(3, 4) },
		"negative col":     func() { b.Append(0, -1, 1); b.Shape(3, 5) },
		"zero dims":        func() { b.Shape(0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			bad()
		}()
	}
}

func TestAllFormatsAgreeOnRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		rows, cols int
		density    float64
	}{
		{1, 1, 1.0},
		{5, 7, 0.3},
		{17, 13, 0.05},
		{40, 40, 0.9},
		{64, 32, 0.01},
		{3, 100, 0.5},
		{100, 3, 0.5},
	}
	for _, tc := range cases {
		b := randomBuilder(rng, tc.rows, tc.cols, tc.density)
		ref, err := b.Build(DEN)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range AllFormats {
			m, err := b.Build(f)
			if err != nil {
				t.Fatalf("%v %dx%d: %v", f, tc.rows, tc.cols, err)
			}
			if !Equal(ref, m) {
				t.Fatalf("%v %dx%d d=%v: content differs from dense", f, tc.rows, tc.cols, tc.density)
			}
			if m.NNZ() != ref.NNZ() {
				t.Fatalf("%v: nnz %d != %d", f, m.NNZ(), ref.NNZ())
			}
		}
	}
}

func TestMulVecSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		rows, cols int
		density    float64
	}{
		{1, 1, 1.0},
		{8, 8, 0.4},
		{33, 17, 0.1},
		{17, 33, 0.25},
		{60, 60, 0.02},
		{25, 25, 1.0},
	} {
		b := randomBuilder(rng, tc.rows, tc.cols, tc.density)
		dense := ToDense(b.MustBuild(DEN))
		// x is a random row of the matrix plus random perturbations — like
		// SMO, x is drawn from the matrix's own row distribution.
		x := Vector{Dim: tc.cols}
		for j := 0; j < tc.cols; j++ {
			if rng.Float64() < 0.5 {
				x = x.Append(int32(j), rng.NormFloat64())
			}
		}
		want := refMulVecSparse(dense, tc.rows, tc.cols, x)
		scratch := make([]float64, tc.cols)
		for _, f := range AllFormats {
			m, err := b.Build(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 5} {
				for _, sched := range []exec.Sched{exec.Static, exec.Guided} {
					dst := make([]float64, tc.rows)
					m.MulVecSparse(dst, x, scratch, texec(t, workers, sched))
					if !almostEqual(dst, want, 1e-12) {
						t.Fatalf("%v %dx%d w=%d s=%d: mismatch\n got %v\nwant %v",
							f, tc.rows, tc.cols, workers, sched, dst, want)
					}
					// scratch must be restored to zero.
					for j, s := range scratch {
						if s != 0 {
							t.Fatalf("%v: scratch[%d]=%v not restored", f, j, s)
						}
					}
				}
			}
		}
	}
}

func TestMulVecSparseEmptyX(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := randomBuilder(rng, 10, 10, 0.3)
	scratch := make([]float64, 10)
	for _, f := range AllFormats {
		m := b.MustBuild(f)
		dst := make([]float64, 10)
		for i := range dst {
			dst[i] = 99 // stale garbage the kernel must overwrite
		}
		m.MulVecSparse(dst, Vector{Dim: 10}, scratch, texec(t, 4, exec.Static))
		for i, d := range dst {
			if d != 0 {
				t.Fatalf("%v: dst[%d]=%v, want 0 for empty x", f, i, d)
			}
		}
	}
}

func TestConvertRoundTripAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := randomBuilder(rng, 20, 15, 0.2)
	ref := b.MustBuild(DEN)
	for _, from := range AllFormats {
		src := b.MustBuild(from)
		for _, to := range AllFormats {
			dst, err := Convert(src, to)
			if err != nil {
				t.Fatalf("%v->%v: %v", from, to, err)
			}
			if !Equal(ref, dst) {
				t.Fatalf("%v->%v: content changed", from, to)
			}
		}
	}
}

func TestStorageFormulasMatchMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows, cols := 30, 20
	b := randomBuilder(rng, rows, cols, 0.15)
	den := b.MustBuild(DEN)
	csr := b.MustBuild(CSR).(*CSRMatrix)
	coo := b.MustBuild(COO).(*COOMatrix)
	ell := b.MustBuild(ELL).(*ELLMatrix)
	dia := b.MustBuild(DIA).(*DIAMatrix)
	nnz := int64(den.NNZ())
	if got, want := den.StoredElements(), int64(rows*cols); got != want {
		t.Errorf("DEN stored = %d, want %d", got, want)
	}
	if got, want := csr.StoredElements(), 2*nnz+int64(rows); got != want {
		t.Errorf("CSR stored = %d, want %d", got, want)
	}
	if got, want := coo.StoredElements(), 3*nnz; got != want {
		t.Errorf("COO stored = %d, want %d", got, want)
	}
	if got, want := ell.StoredElements(), 2*int64(rows)*int64(ell.width); got != want {
		t.Errorf("ELL stored = %d, want %d", got, want)
	}
	if got, want := dia.StoredElements(), int64(len(dia.offsets))*int64(min(rows, cols)+1); got != want {
		t.Errorf("DIA stored = %d, want %d", got, want)
	}
}

func TestTableIIBoundsContainMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, density := range []float64{0.01, 0.3, 1.0} {
		rows, cols := 25, 18
		b := randomBuilder(rng, rows, cols, density)
		bounds := TableII(int64(rows), int64(cols))
		for i, f := range [5]Format{DEN, CSR, COO, ELL, DIA} {
			m, err := b.Build(f)
			if err != nil {
				t.Fatal(err)
			}
			if m.NNZ() == 0 {
				continue
			}
			got := m.StoredElements()
			if got > bounds[i].Max {
				t.Errorf("d=%v %v: stored %d exceeds Table II max %d", density, f, got, bounds[i].Max)
			}
			if got < bounds[i].Min {
				t.Errorf("d=%v %v: stored %d below Table II min %d", density, f, got, bounds[i].Min)
			}
		}
	}
}

func TestTableIIDenseExtremes(t *testing.T) {
	// A fully dense matrix must hit the Table II maxima exactly for
	// DEN, CSR, COO and ELL, and the diagonal count M+N-1 for DIA.
	rows, cols := 9, 7
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			b.Add(i, j, 1.0)
		}
	}
	bounds := TableII(int64(rows), int64(cols))
	for i, f := range [5]Format{DEN, CSR, COO, ELL, DIA} {
		m := b.MustBuild(f)
		if got := m.StoredElements(); got != bounds[i].Max {
			t.Errorf("%v: dense stored %d != Table II max %d", f, got, bounds[i].Max)
		}
	}
	dia := b.MustBuild(DIA).(*DIAMatrix)
	if got, want := len(dia.offsets), rows+cols-1; got != want {
		t.Errorf("dense DIA diagonals = %d, want %d", got, want)
	}
}

func TestDIARejectsTooManyDiagonals(t *testing.T) {
	// A huge dense-diagonal-spread matrix must be refused, not OOM.
	rows := 40000
	b := NewBuilder(rows, rows)
	for i := 0; i < rows; i++ {
		b.Add(i, rows-1-i, 1.0) // anti-diagonal: every entry its own diagonal
	}
	_, err := b.Build(DIA)
	if err == nil {
		t.Fatal("expected DIA cap error for 40000-diagonal matrix")
	}
}

func TestDIADiagonalCount(t *testing.T) {
	b := NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.Add(i, i, 1.0)
	}
	for i := 0; i < 5; i++ {
		b.Add(i, i+1, 2.0)
	}
	dia := b.MustBuild(DIA).(*DIAMatrix)
	if len(dia.offsets) != 2 {
		t.Fatalf("diagonals = %d, want 2", len(dia.offsets))
	}
}

func TestELLWidthEqualsMaxRowNNZ(t *testing.T) {
	b := NewBuilder(4, 10)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 3, 1)
	b.Add(1, 9, 1)
	b.Add(3, 2, 1)
	ell := b.MustBuild(ELL).(*ELLMatrix)
	if ell.width != 3 {
		t.Fatalf("width = %d, want 3 (row 1 has 3 nnz)", ell.width)
	}
}

func TestQuickFormatsPreserveContent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(seed int64, rowsRaw, colsRaw uint8, densRaw uint8) bool {
		rows := int(rowsRaw%30) + 1
		cols := int(colsRaw%30) + 1
		density := float64(densRaw%100) / 100.0
		local := rand.New(rand.NewSource(seed))
		b := randomBuilder(local, rows, cols, density)
		ref := b.MustBuild(DEN)
		for _, f := range AllFormats {
			m, err := b.Build(f)
			if err != nil {
				return false
			}
			if !Equal(ref, m) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulVecAgreesAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	check := func(seed int64, rowsRaw, colsRaw uint8) bool {
		rows := int(rowsRaw%25) + 1
		cols := int(colsRaw%25) + 1
		local := rand.New(rand.NewSource(seed))
		b := randomBuilder(local, rows, cols, 0.25)
		x := Vector{Dim: cols}
		for j := 0; j < cols; j++ {
			if local.Float64() < 0.4 {
				x = x.Append(int32(j), local.NormFloat64())
			}
		}
		dense := ToDense(b.MustBuild(DEN))
		want := refMulVecSparse(dense, rows, cols, x)
		scratch := make([]float64, cols)
		dst := make([]float64, rows)
		for _, f := range AllFormats {
			m, err := b.Build(f)
			if err != nil {
				return false
			}
			m.MulVecSparse(dst, x, scratch, texec(t, 3, exec.Guided))
			if !almostEqual(dst, want, 1e-11) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCOOParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	b := randomBuilder(rng, 200, 50, 0.1)
	m := b.MustBuild(COO)
	x := Vector{Dim: 50}
	for j := 0; j < 50; j++ {
		x = x.Append(int32(j), 1.0/float64(j+1))
	}
	scratch := make([]float64, 50)
	serial := make([]float64, 200)
	m.MulVecSparse(serial, x, scratch, nil)
	// Every row is summed by one worker in triplet order, so any worker
	// count reproduces the serial kernel's bits, run after run.
	for _, workers := range []int{1, 2, 3, 4, 7, 8} {
		ex := texec(t, workers, exec.Static)
		for trial := 0; trial < 3; trial++ {
			got := make([]float64, 200)
			m.MulVecSparse(got, x, scratch, ex)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
					t.Fatalf("%d workers, trial %d: dst[%d] = %v, serial kernel gives %v", workers, trial, i, got[i], serial[i])
				}
			}
		}
	}
}

func TestCOOSingleRowManyWorkers(t *testing.T) {
	// All nonzeros in one row: every worker's range lies inside the same
	// row, which the worker it starts in must sum alone and whole.
	b := NewBuilder(1, 64)
	for j := 0; j < 64; j++ {
		b.Add(0, j, 1.0)
	}
	m := b.MustBuild(COO)
	x := Vector{Dim: 64}
	for j := 0; j < 64; j++ {
		x = x.Append(int32(j), 1.0)
	}
	scratch := make([]float64, 64)
	dst := make([]float64, 1)
	m.MulVecSparse(dst, x, scratch, texec(t, 8, exec.Static))
	if dst[0] != 64 {
		t.Fatalf("dst[0] = %v, want 64", dst[0])
	}
}
