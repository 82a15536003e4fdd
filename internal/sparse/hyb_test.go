package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
)

func TestHYBPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, width := range []int{0, 1, 3, 100} {
		b := randomBuilder(rng, 40, 30, 0.2)
		ref := b.MustBuild(DEN)
		h := NewHYB(b, width)
		if !Equal(ref, h) {
			t.Fatalf("width=%d: HYB content differs", width)
		}
		if h.NNZ() != ref.NNZ() {
			t.Fatalf("width=%d: nnz %d != %d", width, h.NNZ(), ref.NNZ())
		}
	}
}

func TestHYBSpillBehaviour(t *testing.T) {
	// One row of 10 nonzeros among uniform 2-nnz rows: with width 2 the
	// long row spills 8 entries to COO and the ELL width stays 2.
	b := NewBuilder(10, 20)
	for i := 0; i < 10; i++ {
		b.Add(i, 0, 1)
		b.Add(i, 5, 1)
	}
	for j := 6; j < 14; j++ {
		b.Add(0, j, 2)
	}
	h := NewHYB(b, 2)
	if h.Width() != 2 {
		t.Fatalf("ELL width = %d, want 2", h.Width())
	}
	if h.SpillNNZ() != 8 {
		t.Fatalf("spill = %d, want 8", h.SpillNNZ())
	}
	// The same matrix in plain ELL pads every row to 10:
	ell := b.MustBuild(ELL).(*ELLMatrix)
	if ell.width != 10 {
		t.Fatalf("plain ELL width = %d, want 10", ell.width)
	}
	if h.StoredElements() >= ell.StoredElements() {
		t.Fatalf("HYB stored %d should beat padded ELL %d", h.StoredElements(), ell.StoredElements())
	}
}

func TestHYBMulVecSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	b := randomBuilder(rng, 35, 25, 0.25)
	// Skew one row hard so the spill path is exercised.
	for j := 0; j < 25; j++ {
		b.Add(7, j, float64(j)+1)
	}
	dense := ToDense(b.MustBuild(DEN))
	h := NewHYB(b, 0)
	if h.SpillNNZ() == 0 {
		t.Fatal("test setup: expected spill")
	}
	x := Vector{Dim: 25}
	for j := 0; j < 25; j += 2 {
		x = x.Append(int32(j), rng.NormFloat64())
	}
	want := refMulVecSparse(dense, 35, 25, x)
	dst := make([]float64, 35)
	scratch := make([]float64, 25)
	h.MulVecSparse(dst, x, scratch, texec(t, 3, exec.Static))
	if !almostEqual(dst, want, 1e-12) {
		t.Fatalf("HYB SMSV mismatch:\n got %v\nwant %v", dst, want)
	}
	for j, s := range scratch {
		if s != 0 {
			t.Fatalf("scratch[%d]=%v not restored", j, s)
		}
	}
}

func TestDefaultHYBWidth(t *testing.T) {
	if w := DefaultHYBWidth(10, 25); w != 3 {
		t.Fatalf("width = %d, want ceil(25/10)=3", w)
	}
	if w := DefaultHYBWidth(10, 0); w != 1 {
		t.Fatalf("zero-nnz width = %d, want 1", w)
	}
	if w := DefaultHYBWidth(0, 5); w != 1 {
		t.Fatalf("zero-rows width = %d, want 1", w)
	}
}
