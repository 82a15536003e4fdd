package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// TestColumnKernelMatchesCSRBitwise: the column kernel adds each row's
// terms in ascending column order, as CSR's row sum does, so its products —
// single and paired, serial and on a pool — are CSR's to the bit on every
// generated shape and x, the matrix's own rows included.
func TestColumnKernelMatchesCSRBitwise(t *testing.T) {
	ex := texec(t, 4, exec.Static)
	rng := rand.New(rand.NewSource(31))
	for _, c := range diffCases() {
		csr, csc := c.b.MustBuild(CSR), c.b.MustBuild(CSC)
		xs := xVariants(c.cols, rng)
		tr := c.b.Triplets()
		for i := 0; i < c.rows; i += max(c.rows/5, 1) {
			xs = append(xs, tr.RowTo(Vector{}, i))
		}
		s1, s2 := make([]float64, c.cols), make([]float64, c.cols)
		for xi, x := range xs {
			x2 := xs[(xi+1)%len(xs)]
			want, want2 := make([]float64, c.rows), make([]float64, c.rows)
			csr.(PairMultiplier).MulVecSparse2(want, want2, x, x2, s1, s2, nil)
			for _, e := range []*exec.Exec{nil, ex} {
				got, got2 := make([]float64, c.rows), make([]float64, c.rows)
				csc.MulVecSparse(got, x, nil, e)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s/x%d, %d workers: CSC dst[%d] = %v, CSR %v", c.name, xi, e.Workers(), i, got[i], want[i])
				}
				csc.(PairMultiplier).MulVecSparse2(got, got2, x, x2, nil, nil, e)
				if i, j := firstBitDiff(got, want), firstBitDiff(got2, want2); i >= 0 || j >= 0 {
					t.Fatalf("%s/x%d, %d workers: CSC pair differs from CSR's fused pair at dst1[%d], dst2[%d]", c.name, xi, e.Workers(), i, j)
				}
			}
		}
	}
}

// TestColumnKernelAllocatesNothing: the column kernel is serial and reads
// x's support directly, so a product on a pooled context allocates nothing
// (the parallel form it replaces allocated a partial vector per worker).
func TestColumnKernelAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	rng := rand.New(rand.NewSource(32))
	b := randomBuilder(rng, 300, 400, 0.05)
	m := b.MustBuild(CSC)
	tr := b.Triplets()
	x1, x2 := tr.RowTo(Vector{}, 7), tr.RowTo(Vector{}, 200)
	dst1, dst2 := make([]float64, 300), make([]float64, 300)
	ex := texec(t, 4, exec.Static).WithStats(&exec.Stats{})
	if n := testing.AllocsPerRun(20, func() {
		m.MulVecSparse(dst1, x1, nil, ex)
		m.(PairMultiplier).MulVecSparse2(dst1, dst2, x1, x2, nil, nil, ex)
	}); n != 0 {
		t.Fatalf("%v objects per product and pair, want 0", n)
	}
}

// FuzzColumnPair holds the column pair to CSR's fused pair, bit for bit, on
// matrices and x vectors drawn from the input: a header of rows, columns
// and density, then bytes that place and value the entries and the two x
// vectors' supports.
func FuzzColumnPair(f *testing.F) {
	f.Add([]byte{5, 7, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{1, 1, 255, 9})
	f.Add([]byte{40, 3, 200, 0xff, 0x80, 0x7f, 0, 1, 0xfe, 3, 0x10, 0x20, 0x40})
	f.Add([]byte{3, 60, 10, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols, density := int(data[0])%48+1, int(data[1])%48+1, int(data[2])
		data = data[3:]
		next := func() byte { // zeros once the input runs out
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		// A value byte maps to one of a few magnitudes and both signs, so
		// sums cancel, round and carry the sign of zero.
		value := func(v byte) float64 {
			mags := [...]float64{1, 0.1, 3.5, 1e-3, 7e5, 1.0 / 3}
			x := mags[int(v)%len(mags)] * float64(int(v>>3)+1)
			if v&0x80 != 0 {
				x = -x
			}
			return x
		}
		b := NewBuilder(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if int(next()) < density {
					b.Add(i, j, value(next()))
				}
			}
		}
		vec := func() Vector {
			x := Vector{Dim: cols}
			for j := 0; j < cols; j++ {
				if v := next(); v&1 == 1 {
					x = x.Append(int32(j), value(v))
				}
			}
			return x
		}
		x1, x2 := vec(), vec()
		csr, csc := b.MustBuild(CSR), b.MustBuild(CSC)
		want1, want2 := make([]float64, rows), make([]float64, rows)
		csr.(PairMultiplier).MulVecSparse2(want1, want2, x1, x2, make([]float64, cols), make([]float64, cols), nil)
		got1, got2 := make([]float64, rows), make([]float64, rows)
		csc.(PairMultiplier).MulVecSparse2(got1, got2, x1, x2, nil, nil, nil)
		if i, j := firstBitDiff(got1, want1), firstBitDiff(got2, want2); i >= 0 || j >= 0 {
			t.Fatalf("%dx%d: column pair differs from CSR's fused pair at dst1[%d], dst2[%d]\n got %v %v\nwant %v %v", rows, cols, i, j, got1, got2, want1, want2)
		}
	})
}
