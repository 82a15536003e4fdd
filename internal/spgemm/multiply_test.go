package spgemm

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// refProduct is the independent dense reference: expand both operands to
// dense images and run the textbook triple loop. It shares no code with
// the kernels under test.
func refProduct(a, b sparse.Matrix) []float64 {
	ar, ac := a.Dims()
	_, bc := b.Dims()
	da := sparse.ToDense(a)
	db := sparse.ToDense(b)
	out := make([]float64, ar*bc)
	for i := 0; i < ar; i++ {
		for k := 0; k < ac; k++ {
			av := da[i*ac+k]
			if av == 0 {
				continue
			}
			for j := 0; j < bc; j++ {
				out[i*bc+j] += av * db[k*bc+j]
			}
		}
	}
	return out
}

// pairCase generates one (A, B) operand pair as builders.
type pairCase struct {
	name string
	gen  func() (a, b *sparse.Builder)
}

func randBuilder(rng *rand.Rand, rows, cols int, density float64) *sparse.Builder {
	b := sparse.NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	if b.Len() == 0 {
		b.Add(0, 0, 1)
	}
	return b
}

func pairCases() []pairCase {
	return []pairCase{
		{"random", func() (*sparse.Builder, *sparse.Builder) {
			rng := rand.New(rand.NewSource(1))
			return randBuilder(rng, 17, 23, 0.2), randBuilder(rng, 23, 11, 0.25)
		}},
		{"banded", func() (*sparse.Builder, *sparse.Builder) {
			a := sparse.NewBuilder(16, 16)
			b := sparse.NewBuilder(16, 16)
			for i := 0; i < 16; i++ {
				for d := -1; d <= 1; d++ {
					if j := i + d; j >= 0 && j < 16 {
						a.Add(i, j, float64(i-j)+0.5)
						b.Add(i, j, float64(i+j)+0.25)
					}
				}
			}
			return a, b
		}},
		{"skewed-rows", func() (*sparse.Builder, *sparse.Builder) {
			// One pathological row (ELL worst case) against a tall thin B.
			a := sparse.NewBuilder(12, 30)
			for j := 0; j < 30; j++ {
				a.Add(0, j, 1.0/float64(j+1))
			}
			for i := 1; i < 12; i++ {
				a.Add(i, i%30, float64(i))
			}
			b := sparse.NewBuilder(30, 4)
			for k := 0; k < 30; k += 2 {
				b.Add(k, k%4, float64(k)-7)
			}
			return a, b
		}},
		{"empty-rows", func() (*sparse.Builder, *sparse.Builder) {
			a := sparse.NewBuilder(9, 9)
			a.Add(2, 3, 2)
			a.Add(7, 1, -3)
			b := sparse.NewBuilder(9, 9)
			b.Add(3, 8, 4)
			b.Add(1, 0, 5)
			b.Add(4, 4, 6)
			return a, b
		}},
		{"single-column", func() (*sparse.Builder, *sparse.Builder) {
			a := sparse.NewBuilder(8, 1)
			for i := 0; i < 8; i++ {
				a.Add(i, 0, float64(i+1))
			}
			b := sparse.NewBuilder(1, 6)
			for j := 0; j < 6; j += 2 {
				b.Add(0, j, float64(j)-2.5)
			}
			return a, b
		}},
		{"dense", func() (*sparse.Builder, *sparse.Builder) {
			rng := rand.New(rand.NewSource(7))
			return randBuilder(rng, 10, 10, 1.0), randBuilder(rng, 10, 10, 1.0)
		}},
		{"cancellation", func() (*sparse.Builder, *sparse.Builder) {
			// A(0,0)·B(0,0) + A(0,1)·B(1,0) = 1·1 + 1·(−1): a structural
			// entry whose value cancels to exactly zero.
			a := sparse.NewBuilder(2, 2)
			a.Add(0, 0, 1)
			a.Add(0, 1, 1)
			b := sparse.NewBuilder(2, 2)
			b.Add(0, 0, 1)
			b.Add(1, 0, -1)
			b.Add(1, 1, 2)
			return a, b
		}},
	}
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// checkProduct runs candidate c on the pair and compares against the dense
// reference with a scaled tolerance (the outer-product merge sums in k
// order, the reference in ij-loop order — bit equality is not guaranteed
// across dataflows, only within one).
func checkProduct(t *testing.T, c Candidate, a, b *sparse.Builder, ex *exec.Exec) {
	t.Helper()
	am := a.MustBuild(c.AFormat)
	bm := b.MustBuild(c.BFormat)
	want := refProduct(am, bm)
	var out Result
	if err := Multiply(c, am, bm, &out, ex); err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	got := out.Dense()
	if len(got) != len(want) {
		t.Fatalf("%s: result is %dx%d", c, out.rows, out.cols)
	}
	tol := 1e-12 * math.Max(1, maxAbs(want))
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: cell %d = %g, want %g", c, i, got[i], want[i])
		}
	}
	if nnz := NNZUpperBound(am, bm); int64(out.NNZ()) > nnz {
		t.Fatalf("%s: nnz %d exceeds upper bound %d", c, out.NNZ(), nnz)
	}
}

func TestMultiplyDifferential(t *testing.T) {
	ex := exec.New(4, exec.Static)
	defer ex.Close()
	cands := AppendCandidates(nil)
	if len(cands) == 0 {
		t.Fatal("no supported candidates")
	}
	for _, tc := range pairCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range cands {
				a, b := tc.gen()
				checkProduct(t, c, a, b, nil) // serial
				a, b = tc.gen()
				checkProduct(t, c, a, b, ex) // pooled
			}
		})
	}
}

// TestMultiplyDeterministic locks the bit-identical-across-worker-count
// contract for every dataflow (the merge orders are fixed by construction).
func TestMultiplyDeterministic(t *testing.T) {
	ex := exec.New(3, exec.Static)
	defer ex.Close()
	rng := rand.New(rand.NewSource(42))
	ab := randBuilder(rng, 20, 25, 0.3)
	bb := randBuilder(rng, 25, 15, 0.3)
	for _, c := range AppendCandidates(nil) {
		am := ab.MustBuild(c.AFormat)
		bm := bb.MustBuild(c.BFormat)
		var serial, pooled Result
		if err := Multiply(c, am, bm, &serial, nil); err != nil {
			t.Fatal(err)
		}
		if err := Multiply(c, am, bm, &pooled, ex); err != nil {
			t.Fatal(err)
		}
		if serial.NNZ() != pooled.NNZ() {
			t.Fatalf("%s: nnz %d serial vs %d pooled", c, serial.NNZ(), pooled.NNZ())
		}
		for i := range serial.val {
			if serial.val[i] != pooled.val[i] || serial.idx[i] != pooled.idx[i] {
				t.Fatalf("%s: entry %d differs: (%d,%g) vs (%d,%g)",
					c, i, serial.idx[i], serial.val[i], pooled.idx[i], pooled.val[i])
			}
		}
	}
}

// outerBySort is the outer-product merge as it was before the counting
// merge, kept as its oracle: every contribution emitted in ascending k,
// stable-sorted by (row, col) with sort.SliceStable, each cell's first
// contribution assigned and the rest added in that order.
func outerBySort(a *sparse.CSCMatrix, b sparse.Matrix) (ptr []int64, idx []int32, val []float64) {
	rows, k := a.Dims()
	var m []triplet
	var brow sparse.Vector
	for kk := 0; kk < k; kk++ {
		col := a.Col(kk)
		brow = b.RowTo(brow, kk)
		for q, i := range col.Index {
			for r, j := range brow.Index {
				m = append(m, triplet{row: i, col: j, val: col.Value[q] * brow.Value[r]})
			}
		}
	}
	sort.SliceStable(m, func(x, y int) bool {
		if m[x].row != m[y].row {
			return m[x].row < m[y].row
		}
		return m[x].col < m[y].col
	})
	ptr = make([]int64, rows+1)
	for q, t := range m {
		if q > 0 && t.row == m[q-1].row && t.col == m[q-1].col {
			val[len(val)-1] += t.val
			continue
		}
		idx = append(idx, t.col)
		val = append(val, t.val)
		ptr[t.row+1]++
	}
	for i := 0; i < rows; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr, idx, val
}

// TestOuterMatchesSortMerge holds the counting merge to the stable-sort merge
// it replaced, bit for bit, at 1, 2 and 4 workers: on random operands, on
// duplicate-heavy ones where every cell sums dozens of contributions whose
// order changes the rounding, and on signed zeros — a product that underflows
// to −0 must stay −0 when it is a cell's only contribution, and a cell that
// cancels must come out +0.
func TestOuterMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dup := func(rows, k, cols int) (*sparse.Builder, *sparse.Builder) {
		// Few output cells, long k: each (i, j) collects about k/2 terms of
		// mixed magnitude.
		a, b := sparse.NewBuilder(rows, k), sparse.NewBuilder(k, cols)
		for kk := 0; kk < k; kk++ {
			for i := 0; i < rows; i++ {
				if rng.Intn(2) == 0 {
					a.Add(i, kk, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
				}
			}
			for j := 0; j < cols; j++ {
				if rng.Intn(2) == 0 {
					b.Add(kk, j, rng.NormFloat64())
				}
			}
		}
		return a, b
	}
	signed := func() (*sparse.Builder, *sparse.Builder) {
		a, b := sparse.NewBuilder(3, 3), sparse.NewBuilder(3, 3)
		a.Add(0, 0, 1e-200) // (0,0): 1e-200 · −1e-200 underflows to −0, alone
		b.Add(0, 0, -1e-200)
		a.Add(2, 0, 1e-200) // (2,0): two underflows, −0 + −0 stays −0
		a.Add(2, 1, 1e-200)
		b.Add(1, 0, -1e-200)
		a.Add(1, 1, 2) // (1,2): 2·3 + (−3)·2 cancels to +0
		a.Add(1, 2, -3)
		b.Add(1, 2, 3)
		b.Add(2, 2, 2)
		return a, b
	}
	cases := []struct {
		name string
		a, b *sparse.Builder
	}{
		{"random", randBuilder(rng, 40, 300, 0.05), randBuilder(rng, 300, 35, 0.05)},
		{"duplicate-heavy", nil, nil},
		{"signed-zero", nil, nil},
	}
	cases[1].a, cases[1].b = dup(6, 400, 5)
	cases[2].a, cases[2].b = signed()
	for _, tc := range cases {
		am := tc.a.MustBuild(sparse.CSC).(*sparse.CSCMatrix)
		for _, bf := range []sparse.Format{sparse.CSR, sparse.ELL} {
			bm := tc.b.MustBuild(bf)
			ptr, idx, val := outerBySort(am, bm)
			for _, workers := range []int{1, 2, 4} {
				ex := exec.New(workers, exec.Static)
				var out Result
				if err := Multiply(Candidate{OuterProduct, sparse.CSC, bf}, am, bm, &out, ex); err != nil {
					t.Fatal(err)
				}
				ex.Close()
				if !slices.Equal(out.ptr, ptr) || !slices.Equal(out.idx, idx) {
					t.Fatalf("%s ×%v, %d workers: structure differs from the sort merge", tc.name, bf, workers)
				}
				for q := range val {
					if math.Float64bits(out.val[q]) != math.Float64bits(val[q]) {
						t.Fatalf("%s ×%v, %d workers: entry %d is %v, the sort merge gives %v",
							tc.name, bf, workers, q, out.val[q], val[q])
					}
				}
			}
		}
	}
	// The signed-zero case must actually exercise both signs.
	am := cases[2].a.MustBuild(sparse.CSC).(*sparse.CSCMatrix)
	var out Result
	if err := Multiply(Candidate{OuterProduct, sparse.CSC, sparse.CSR}, am, cases[2].b.MustBuild(sparse.CSR), &out, nil); err != nil {
		t.Fatal(err)
	}
	if got := out.Dense(); !math.Signbit(got[0]) || got[1*3+2] != 0 || math.Signbit(got[1*3+2]) || !math.Signbit(got[2*3+0]) {
		t.Fatalf("signed zeros not preserved: %v", got)
	}
}

// TestResultArenaReuse drives one Result and one Scratch through products
// of shrinking then growing size, checking Reset keeps correctness.
func TestResultArenaReuse(t *testing.T) {
	var out Result
	var sc Scratch
	rng := rand.New(rand.NewSource(9))
	dims := [][3]int{{12, 18, 9}, {4, 4, 4}, {30, 22, 17}}
	for _, d := range dims {
		ab := randBuilder(rng, d[0], d[1], 0.3)
		bb := randBuilder(rng, d[1], d[2], 0.3)
		for _, c := range AppendCandidates(nil) {
			am := ab.MustBuild(c.AFormat)
			bm := bb.MustBuild(c.BFormat)
			if err := sc.Multiply(c, am, bm, &out, nil); err != nil {
				t.Fatal(err)
			}
			want := refProduct(am, bm)
			got := out.Dense()
			tol := 1e-12 * math.Max(1, maxAbs(want))
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("%s dims %v: cell %d = %g, want %g", c, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMultiplyRejectsBadInput(t *testing.T) {
	ab := sparse.NewBuilder(3, 4)
	ab.Add(0, 0, 1)
	bb := sparse.NewBuilder(5, 2) // inner dim mismatch: 4 != 5
	bb.Add(0, 0, 1)
	am := ab.MustBuild(sparse.CSR)
	bm := bb.MustBuild(sparse.CSR)
	var out Result
	if err := Multiply(BaseCandidate, am, bm, &out, nil); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := Multiply(Candidate{Dataflow: Gustavson, AFormat: sparse.COO, BFormat: sparse.CSR}, am, bm, &out, nil); err == nil {
		t.Fatal("unsupported candidate accepted")
	}
	if err := Multiply(BaseCandidate, ab.MustBuild(sparse.ELL), bm, &out, nil); err == nil {
		t.Fatal("format/candidate mismatch accepted")
	}
}

func TestCandidateEncoding(t *testing.T) {
	cands := AppendCandidates(nil)
	if len(cands) != 5 {
		t.Fatalf("supported candidate count = %d, want 5", len(cands))
	}
	seen := map[int]bool{}
	for _, c := range cands {
		i := c.Index()
		if i < 0 || i >= NumCandidates || seen[i] {
			t.Fatalf("%s: bad or duplicate index %d", c, i)
		}
		seen[i] = true
		if CandidateAt(i) != c {
			t.Fatalf("CandidateAt(Index(%s)) = %s", c, CandidateAt(i))
		}
		parsed, err := ParseCandidate(c.String())
		if err != nil || parsed != c {
			t.Fatalf("ParseCandidate(%q) = %v, %v", c.String(), parsed, err)
		}
	}
	// The string forms are frozen: they persist in histories and models.
	want := map[string]bool{
		"gustavson/CSR/CSR": true, "gustavson/ELL/CSR": true,
		"outer/CSC/CSR": true, "outer/CSC/ELL": true,
		"inner/CSR/CSC": true,
	}
	for _, c := range cands {
		if !want[c.String()] {
			t.Fatalf("unexpected candidate %s", c)
		}
	}
	if _, err := ParseCandidate("gustavson/CSR"); err == nil {
		t.Fatal("short form accepted")
	}
	if _, err := ParseCandidate("spiral/CSR/CSR"); err == nil {
		t.Fatal("unknown dataflow accepted")
	}
	if _, err := ParseCandidate("gustavson/CSR/CSR/CSR"); err == nil {
		t.Fatal("long form accepted")
	}
	// Every name, tabled or not, is the three parts joined; naming an
	// in-range candidate allocates nothing.
	for i := 0; i < NumCandidates; i++ {
		c := CandidateAt(i)
		if want := c.Dataflow.String() + "/" + c.AFormat.String() + "/" + c.BFormat.String(); c.String() != want {
			t.Fatalf("candidate %d is named %q, want %q", i, c.String(), want)
		}
	}
	if got := (Candidate{Dataflow: 5}).String(); got != "Dataflow(5)/DEN/DEN" {
		t.Fatalf("out-of-range candidate named %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = BaseCandidate.String() }); allocs != 0 {
		t.Fatalf("naming a candidate allocates %.0f objects", allocs)
	}
}

func TestEstimators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ab := randBuilder(rng, 14, 20, 0.25)
	bb := randBuilder(rng, 20, 10, 0.25)
	am := ab.MustBuild(sparse.CSR)
	bm := bb.MustBuild(sparse.CSR)
	var out Result
	if err := Multiply(BaseCandidate, am, bm, &out, nil); err != nil {
		t.Fatal(err)
	}
	ub := NNZUpperBound(am, bm)
	if int64(out.NNZ()) > ub {
		t.Fatalf("nnz %d > upper bound %d", out.NNZ(), ub)
	}
	if ub > 14*10 {
		t.Fatalf("upper bound %d exceeds dense cell count", ub)
	}
	// The feature-level estimate the pair embedding runs should land within
	// a factor of the truth for a uniform random pair.
	shape := func(m, n int, density float64) dataset.Features {
		return dataset.Features{M: m, N: n, Density: density}
	}
	est := dataset.EstimateOutputNNZ(shape(14, 20, 0.25), shape(20, 10, 0.25))
	if est < float64(out.NNZ())/4 || est > float64(out.NNZ())*4 {
		t.Fatalf("EstimateOutputNNZ = %g vs true %d", est, out.NNZ())
	}
	if dataset.EstimateOutputNNZ(shape(0, 20, 0.5), shape(20, 10, 0.5)) != 0 ||
		dataset.EstimateOutputNNZ(shape(14, 20, 0), shape(20, 10, 0.5)) != 0 {
		t.Fatal("degenerate estimates should be zero")
	}
	if got := dataset.EstimateOutputNNZ(shape(3, 5, 1), shape(5, 4, 1)); got != 12 {
		t.Fatalf("fully dense estimate = %g, want 12", got)
	}
	// Cost model sanity: on a huge dense-cell grid the inner product must
	// rank worst, and every cost is finite and positive.
	for _, c := range AppendCandidates(nil) {
		cost := EstimateCost(c, 1000, 1000, 5000, 5000, 20000)
		if math.IsInf(cost, 0) || math.IsNaN(cost) || cost <= 0 {
			t.Fatalf("%s: cost %g", c, cost)
		}
	}
	inner := EstimateCost(Candidate{InnerProduct, sparse.CSR, sparse.CSC}, 1000, 1000, 5000, 5000, 20000)
	gust := EstimateCost(BaseCandidate, 1000, 1000, 5000, 5000, 20000)
	if inner <= gust {
		t.Fatalf("inner cost %g should exceed gustavson %g on a large sparse grid", inner, gust)
	}
}

func BenchmarkMultiply(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ab := randBuilder(rng, 128, 128, 0.05)
	bb := randBuilder(rng, 128, 128, 0.05)
	ex := exec.New(4, exec.Static)
	defer ex.Close()
	for _, c := range AppendCandidates(nil) {
		am := ab.MustBuild(c.AFormat)
		bm := bb.MustBuild(c.BFormat)
		b.Run(c.String(), func(b *testing.B) {
			var out Result
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sc.Multiply(c, am, bm, &out, ex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
