package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
)

func TestPairMulVecMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	b := randomBuilder(rng, 40, 30, 0.25)
	x1 := Vector{Dim: 30}
	x2 := Vector{Dim: 30}
	for j := 0; j < 30; j++ {
		if rng.Float64() < 0.4 {
			x1 = x1.Append(int32(j), rng.NormFloat64())
		}
		if rng.Float64() < 0.4 {
			x2 = x2.Append(int32(j), rng.NormFloat64())
		}
	}
	s1 := make([]float64, 30)
	s2 := make([]float64, 30)
	for _, f := range AllFormats {
		m, err := b.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		want1 := make([]float64, 40)
		want2 := make([]float64, 40)
		m.MulVecSparse(want1, x1, s1, nil)
		m.MulVecSparse(want2, x2, s1, nil)
		got1 := make([]float64, 40)
		got2 := make([]float64, 40)
		Candidate{Format: f, Variant: VariantFused}.RunPair(m, got1, got2, x1, x2, s1, s2, texec(t, 2, exec.Static))
		if !almostEqual(got1, want1, 1e-13) || !almostEqual(got2, want2, 1e-13) {
			t.Fatalf("%v: paired products differ from singles", f)
		}
		for j := range s1 {
			if s1[j] != 0 || s2[j] != 0 {
				t.Fatalf("%v: scratch not restored", f)
			}
		}
	}
}

func TestPairMultiplierImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	b := randomBuilder(rng, 10, 10, 0.3)
	for _, f := range []Format{DEN, CSR, ELL, DIA, CSC} {
		if _, ok := b.MustBuild(f).(PairMultiplier); !ok {
			t.Errorf("%v should implement PairMultiplier", f)
		}
	}
	// COO intentionally does not (its nnz-parallel fixups would double);
	// the generic fallback covers it.
	if _, ok := b.MustBuild(COO).(PairMultiplier); ok {
		t.Log("COO grew a fused kernel; update this test")
	}
}
