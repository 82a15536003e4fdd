package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestExtractKnownMatrix(t *testing.T) {
	// 3x4 matrix:
	//   [1 0 2 0]
	//   [0 3 0 0]
	//   [4 0 0 5]
	b := sparse.NewBuilder(3, 4)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 1, 3)
	b.Add(2, 0, 4)
	b.Add(2, 3, 5)
	f := Extract(b.MustBuild(sparse.CSR))
	if f.M != 3 || f.N != 4 || f.NNZ != 5 {
		t.Fatalf("M/N/nnz wrong: %+v", f)
	}
	if f.Mdim != 2 {
		t.Fatalf("mdim = %d, want 2", f.Mdim)
	}
	if math.Abs(f.Adim-5.0/3.0) > 1e-12 {
		t.Fatalf("adim = %v, want 5/3", f.Adim)
	}
	// dims = [2,1,2], mean 5/3, variance = ((1/3)^2+(2/3)^2+(1/3)^2)/3 = 2/9
	if math.Abs(f.Vdim-2.0/9.0) > 1e-12 {
		t.Fatalf("vdim = %v, want 2/9", f.Vdim)
	}
	// Diagonals (j-i): 0, 2, 0, -2, 1 -> {-2, 0, 1, 2} = 4 distinct.
	if f.Ndig != 4 {
		t.Fatalf("ndig = %d, want 4", f.Ndig)
	}
	if math.Abs(f.Dnnz-5.0/4.0) > 1e-12 {
		t.Fatalf("dnnz = %v, want 1.25", f.Dnnz)
	}
	if math.Abs(f.Density-5.0/12.0) > 1e-12 {
		t.Fatalf("density = %v, want 5/12", f.Density)
	}
}

func TestExtractIdentity(t *testing.T) {
	n := 50
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	f := Extract(b.MustBuild(sparse.DIA))
	if f.Ndig != 1 || f.Mdim != 1 || f.Vdim != 0 || f.Dnnz != float64(n) {
		t.Fatalf("identity features wrong: %+v", f)
	}
}

func TestExtractSameAcrossFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := sparse.NewBuilder(30, 25)
	for i := 0; i < 30; i++ {
		for j := 0; j < 25; j++ {
			if rng.Float64() < 0.2 {
				b.Add(i, j, rng.NormFloat64()+0.5)
			}
		}
	}
	ref := Extract(b.MustBuild(sparse.DEN))
	for _, fm := range sparse.AllFormats {
		m, err := b.Build(fm)
		if err != nil {
			t.Fatal(err)
		}
		if got := Extract(m); got != ref {
			t.Fatalf("%v: features %+v differ from dense %+v", fm, got, ref)
		}
	}
}

func TestPlanRowsTwoPointMath(t *testing.T) {
	// The closed form: variance of the two-point plan equals D·E exactly.
	cases := []struct {
		m, n       int
		adim, vdim float64
		mdim       int
	}{
		{1000, 128, 32.14, 85.22, 74},     // aloi
		{450, 772, 148.5, 1594, 291},      // mnist
		{375, 13797, 159.19, 17634, 1819}, // sector (scaled M)
		{2265, 119, 13.87, 0.059, 14},     // adult
	}
	for _, tc := range cases {
		plan, err := PlanRows(tc.m, tc.n, tc.adim, tc.vdim, tc.mdim)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if plan.Mdim != tc.mdim {
			t.Fatalf("%+v: plan.Mdim = %d", tc, plan.Mdim)
		}
		if plan.K < 1 {
			t.Fatalf("%+v: no long rows", tc)
		}
		// Realized mean from the plan should approximate adim.
		mean := (float64(plan.K)*float64(plan.Mdim) + float64(plan.M-plan.K)*float64(plan.X)) / float64(plan.M)
		if RelErr(mean, tc.adim) > 0.15 {
			t.Fatalf("%+v: plan mean %v too far from adim %v", tc, mean, tc.adim)
		}
	}
}

func TestPlanRowsInfeasible(t *testing.T) {
	if _, err := PlanRows(10, 5, 3, 0, 7); err == nil {
		t.Fatal("mdim > n accepted")
	}
	if _, err := PlanRows(10, 100, 50, 0, 14); err == nil {
		t.Fatal("mdim < adim accepted")
	}
	if _, err := PlanRows(10, 100, 5, 1e9, 10); err == nil {
		t.Fatal("infeasible variance accepted")
	}
	if _, err := PlanRows(0, 100, 5, 0, 10); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestPlanRowsUniformCase(t *testing.T) {
	plan, err := PlanRows(100, 50, 20, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != plan.M || plan.X != 20 || plan.Mdim != 20 {
		t.Fatalf("uniform plan wrong: %+v", plan)
	}
}

func TestLengthsHitTargetNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plan, err := PlanRows(500, 200, 30, 400, 100)
	if err != nil {
		t.Fatal(err)
	}
	lens := plan.Lengths(15000, rng)
	var total int64
	for _, l := range lens {
		total += int64(l)
		if l < 0 || l > 200 {
			t.Fatalf("row length %d out of range", l)
		}
	}
	if total != 15000 {
		t.Fatalf("total nnz = %d, want 15000", total)
	}
}

func TestBandedExactDiagonals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, ndig := range []int{1, 2, 7, 12, 64} {
		b, err := Banded(200, 200, ndig, 1800, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := Extract(b.MustBuild(sparse.CSR))
		if f.Ndig != ndig {
			t.Fatalf("ndig = %d, want %d", f.Ndig, ndig)
		}
	}
}

func TestBandedRejectsBadNdig(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := Banded(10, 10, 0, 50, rng); err == nil {
		t.Fatal("ndig=0 accepted")
	}
	if _, err := Banded(10, 10, 20, 50, rng); err == nil {
		t.Fatal("ndig > M+N-1 accepted")
	}
}

func TestSkewRowsRealizesMdim(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, mdim := range []int{2, 4, 16, 128, 1024} {
		b, err := SkewRows(1024, 1024, 2048, mdim, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := Extract(b.MustBuild(sparse.CSR))
		if f.Mdim != mdim {
			t.Fatalf("mdim = %d, want %d", f.Mdim, mdim)
		}
		if RelErr(float64(f.NNZ), 2048) > 0.05 {
			t.Fatalf("mdim=%d: nnz = %d, want ~2048", mdim, f.NNZ)
		}
	}
}

func TestSkewRowsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := SkewRows(10, 10, 100, 11, rng); err == nil {
		t.Fatal("mdim > n accepted")
	}
	if _, err := SkewRows(10, 100, 5, 50, rng); err == nil {
		t.Fatal("mdim > nnz accepted")
	}
	if _, err := SkewRows(10, 100, 1000, 2, rng); err == nil {
		t.Fatal("nnz > m*mdim accepted")
	}
}

func TestVdimFamilyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prev := -1.0
	for _, vdim := range []float64{0, 10, 100, 1000} {
		b, err := VdimFamily(800, 600, 40, vdim, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := Extract(b.MustBuild(sparse.CSR))
		if f.Vdim < prev {
			t.Fatalf("realized vdim not monotone: %v after %v", f.Vdim, prev)
		}
		prev = f.Vdim
	}
}

func TestQuickFromRowLengths(t *testing.T) {
	check := func(seed int64, rawM, rawN uint8) bool {
		m := int(rawM%50) + 1
		n := int(rawN%50) + 1
		rng := rand.New(rand.NewSource(seed))
		lens := make([]int, m)
		for i := range lens {
			lens[i] = rng.Intn(n + 1)
		}
		b := FromRowLengths(lens, n, rng)
		mat := b.MustBuild(sparse.CSR)
		var v sparse.Vector
		for i := 0; i < m; i++ {
			v = mat.RowTo(v, i)
			if v.NNZ() != lens[i] {
				return false
			}
			if v.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	d, err := ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	a := Extract(d.MustGenerate(42).MustBuild(sparse.CSR))
	b := Extract(d.MustGenerate(42).MustBuild(sparse.CSR))
	if a != b {
		t.Fatalf("same seed gave different matrices: %+v vs %+v", a, b)
	}
	c := Extract(d.MustGenerate(43).MustBuild(sparse.CSR))
	if a == c {
		t.Fatal("different seeds gave identical matrices")
	}
}

// tripletsMatchExtract holds the triplet pass to Extract on the CSR the same
// builder builds: all nine parameters equal, the floats bit for bit, and the
// reported longest row the first one of Mdim nonzeros; and Touched to the
// column-length sum of squares over M of the CSC it builds.
func tripletsMatchExtract(t *testing.T, name string, b *sparse.Builder) {
	t.Helper()
	var e Extractor
	got, longest := e.Triplets(b.Triplets())
	touched := e.Touched(b.Triplets())
	csc := b.MustBuild(sparse.CSC).(*sparse.CSCMatrix)
	rows, cols := csc.Dims()
	var squares float64
	for j := 0; j < cols; j++ {
		n := float64(csc.Col(j).NNZ())
		squares += n * n
	}
	if want := squares / float64(rows); touched != want {
		t.Errorf("%s: touched %v, the CSC's columns give %v", name, touched, want)
	}
	csr := b.MustBuild(sparse.CSR)
	want := Extract(csr)
	if !sameFeatureBits(got, want) {
		t.Errorf("%s:\n triplets %+v\n extract  %+v", name, got, want)
	}
	for i := 0; i <= longest; i++ {
		if n := csr.RowTo(sparse.Vector{}, i).NNZ(); (n == want.Mdim) != (i == longest) {
			t.Fatalf("%s: longest row reported as %d (mdim %d), row %d has %d nonzeros", name, longest, want.Mdim, i, n)
		}
	}
	// A reused extractor must not carry the previous matrix's counts over.
	if again, _ := e.Triplets(b.Triplets()); !sameFeatureBits(again, want) {
		t.Errorf("%s: second pass over the same extractor %+v, want %+v", name, again, want)
	}
	if retouched := e.Touched(b.Triplets()); retouched != touched {
		t.Errorf("%s: second Touched over the same extractor %v, want %v", name, retouched, touched)
	}
}

// TestTripletFeaturesMatchExtract: the scheduler reads its features off the
// builder's canonical triplets instead of a CSR built for the purpose, so the
// two routes must agree to the last bit — on the eleven Table V clones, the
// Figure 2 / 3 / 4 families, and fills that only canonical() puts in order.
func TestTripletFeaturesMatchExtract(t *testing.T) {
	for _, d := range TableV() {
		tripletsMatchExtract(t, d.Name, d.MustGenerate(3))
	}
	rng := rand.New(rand.NewSource(11))
	for _, ndig := range []int{1, 7, 300} {
		b, err := Banded(300, 300, ndig, 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		tripletsMatchExtract(t, fmt.Sprintf("banded/ndig=%d", ndig), b)
	}
	for _, mdim := range []int{2, 64, 512} {
		b, err := SkewRows(512, 512, 1024, mdim, rng)
		if err != nil {
			t.Fatal(err)
		}
		tripletsMatchExtract(t, fmt.Sprintf("skew/mdim=%d", mdim), b)
	}
	for _, vdim := range []float64{0, 400, 6400} {
		b, err := VdimFamily(200, 4000, 40, vdim, rng)
		if err != nil {
			t.Fatal(err)
		}
		tripletsMatchExtract(t, fmt.Sprintf("vdim=%.0f", vdim), b)
	}

	shuffled := sparse.NewBuilder(9, 14)
	for _, k := range rng.Perm(9 * 14) {
		if k%3 != 0 {
			shuffled.Add(k/14, k%14, float64(k%5+1))
		}
	}
	tripletsMatchExtract(t, "out of order", shuffled)

	dup := sparse.NewBuilder(4, 6)
	for _, e := range [][3]int{{3, 5, 2}, {0, 0, 1}, {3, 5, 4}, {1, 2, 7}, {0, 0, 1}, {2, 1, 3}, {0, 0, 1}} {
		dup.Add(e[0], e[1], float64(e[2]))
	}
	tripletsMatchExtract(t, "duplicates", dup)

	zero := sparse.NewBuilder(3, 3)
	zero.Add(0, 0, 1)
	zero.Add(1, 1, 5)
	zero.Add(1, 1, -5) // row 1 sums to nothing: it must count as empty
	zero.Add(2, 0, 0)
	zero.Add(2, 2, 4)
	tripletsMatchExtract(t, "sum to zero", zero)

	tripletsMatchExtract(t, "empty", sparse.NewBuilder(5, 2))
}
