package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// TestColumnMatrixRowsMatchCSCAndCSR: a column matrix reads each row from
// its triplets, and gets what CSC's column probe and CSR's row slice get —
// on random fills, in and out of order, with duplicates and summed-out
// zeros, and on every Table VI clone.
func TestColumnMatrixRowsMatchCSCAndCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := map[string]*sparse.Builder{}
	for _, shape := range [][3]int{{1, 1, 1}, {40, 1, 60}, {1, 60, 40}, {80, 50, 5}, {64, 64, 20}, {50, 120, 2}} {
		rows, cols, pct := shape[0], shape[1], shape[2]
		ordered, shuffled := sparse.NewBuilder(rows, cols), sparse.NewBuilder(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				// The shuffled fill runs backwards, splits each element in
				// two and now and then adds a pair that sums to zero.
				switch v := rng.NormFloat64() + 0.1; {
				case rng.Intn(100) < pct:
					ordered.Add(i, j, v)
					shuffled.Add(rows-1-i, cols-1-j, v/2)
					shuffled.Add(rows-1-i, cols-1-j, v/2)
				case rng.Intn(20) == 0:
					shuffled.Add(rows-1-i, cols-1-j, v)
					shuffled.Add(rows-1-i, cols-1-j, -v)
				}
			}
		}
		cases[fmt.Sprintf("random-%dx%d", rows, cols)] = ordered
		cases[fmt.Sprintf("shuffled-%dx%d", rows, cols)] = shuffled
	}
	for _, name := range dataset.Table6Names {
		d, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = d.MustGenerate(1)
	}
	for name, b := range cases {
		csc := b.MustBuild(sparse.CSC)
		csr := b.MustBuild(sparse.CSR)
		m := sparse.NewColumnMatrix(b.Triplets(), csc.(*sparse.CSCMatrix))
		if m.Format() != sparse.CSC || m.NNZ() != csc.NNZ() {
			t.Fatalf("%s: a column matrix is %v with %d elements, its CSC %d", name, m.Format(), m.NNZ(), csc.NNZ())
		}
		rows, _ := b.Dims()
		var got, fromCSC, fromCSR sparse.Vector
		for i := 0; i < rows; i++ {
			got, fromCSC, fromCSR = m.RowTo(got, i), csc.RowTo(fromCSC, i), csr.RowTo(fromCSR, i)
			for _, want := range []sparse.Vector{fromCSC, fromCSR} {
				if got.Dim != want.Dim || !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Value, want.Value) {
					t.Fatalf("%s: row %d is %v, CSC's and CSR's %v and %v", name, i, got, fromCSC, fromCSR)
				}
			}
		}
	}
}
