package sparse

import (
	"math/rand"
	"testing"
)

func TestValidateAcceptsBuiltMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, density := range []float64{0.0, 0.1, 1.0} {
		b := randomBuilder(rng, 15, 12, density)
		b.Add(0, 0, 1) // ensure at least one entry even at density 0
		for _, f := range AllFormats {
			m, err := b.Build(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateMatrix(m); err != nil {
				t.Errorf("d=%v %v: %v", density, f, err)
			}
		}
		if err := ValidateMatrix(NewHYB(b, 2)); err != nil {
			t.Errorf("d=%v HYB: %v", density, err)
		}
	}
}

func TestValidateCatchesCSRCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	fresh := func() *CSRMatrix {
		b := randomBuilder(rng, 10, 10, 0.3)
		b.Add(0, 0, 1)
		return b.MustBuild(CSR).(*CSRMatrix)
	}
	m := fresh()
	m.ptr[3], m.ptr[4] = m.ptr[4]+1, m.ptr[3]
	if m.Validate() == nil {
		t.Error("decreasing ptr accepted")
	}
	m = fresh()
	if m.NNZ() > 1 {
		m.idx[0] = m.idx[1] // duplicate/unsorted column
		if m.Validate() == nil {
			t.Error("unsorted columns accepted")
		}
	}
	m = fresh()
	m.val[0] = 0
	if m.Validate() == nil {
		t.Error("stored zero accepted")
	}
	m = fresh()
	m.idx[0] = int32(100)
	if m.Validate() == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestValidateCatchesCOOCorruption(t *testing.T) {
	b := NewBuilder(5, 5)
	b.Add(0, 1, 1)
	b.Add(2, 3, 2)
	m := b.MustBuild(COO).(*COOMatrix)
	m.row[0], m.row[1] = m.row[1], m.row[0]
	if m.Validate() == nil {
		t.Error("unsorted COO accepted")
	}
}

func TestValidateCatchesELLCorruption(t *testing.T) {
	b := NewBuilder(3, 6)
	b.Add(0, 1, 1)
	b.Add(0, 4, 2)
	b.Add(1, 0, 3)
	m := b.MustBuild(ELL).(*ELLMatrix)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Punch a hole: zero before a value in row 0.
	m.val[0] = 0
	if m.Validate() == nil {
		t.Error("value after padding accepted")
	}
}

func TestValidateCatchesDIACorruption(t *testing.T) {
	b := NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.Add(i, i, 1)
	}
	m := b.MustBuild(DIA).(*DIAMatrix)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.nnz = 99
	if m.Validate() == nil {
		t.Error("wrong nnz accepted")
	}
}

func TestValidateCatchesDenseCorruption(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(1, 1, 5)
	m := b.MustBuild(DEN).(*Dense)
	m.data[0] = 7 // extra nonzero not in the count
	if m.Validate() == nil {
		t.Error("nnz drift accepted")
	}
}
