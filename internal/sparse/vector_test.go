package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewVectorDense(t *testing.T) {
	v := NewVectorDense([]float64{0, 1.5, 0, -2, 0})
	if v.Dim != 5 || v.NNZ() != 2 {
		t.Fatalf("got dim=%d nnz=%d", v.Dim, v.NNZ())
	}
	if v.Index[0] != 1 || v.Value[0] != 1.5 || v.Index[1] != 3 || v.Value[1] != -2 {
		t.Fatalf("entries wrong: %+v", v)
	}
}

func TestVectorDenseRoundTrip(t *testing.T) {
	check := func(raw []float64) bool {
		// Sparsify the input to make zeros common.
		in := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			if i%3 == 0 {
				x = 0
			}
			in[i] = x
		}
		v := NewVectorDense(in)
		out := v.Dense()
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorDotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		dim := rng.Intn(40) + 1
		a := make([]float64, dim)
		b := make([]float64, dim)
		for i := 0; i < dim; i++ {
			if rng.Float64() < 0.5 {
				a[i] = rng.NormFloat64()
			}
			if rng.Float64() < 0.5 {
				b[i] = rng.NormFloat64()
			}
		}
		va, vb := NewVectorDense(a), NewVectorDense(b)
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := va.Dot(vb); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Dot = %v, want %v", got, want)
		}
		if got := va.DotDense(b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("DotDense = %v, want %v", got, want)
		}
		if got, w := va.Dot(vb), vb.Dot(va); got != w {
			t.Fatalf("Dot not symmetric: %v vs %v", got, w)
		}
	}
}

func TestVectorNorm2Sq(t *testing.T) {
	v := NewVectorDense([]float64{3, 0, 4})
	if got := v.Norm2Sq(); got != 25 {
		t.Fatalf("Norm2Sq = %v, want 25", got)
	}
}

func TestVectorScatterGatherRestoresScratch(t *testing.T) {
	v := NewVectorDense([]float64{0, 2, 0, 5})
	scratch := make([]float64, 4)
	v.ScatterInto(scratch)
	if scratch[1] != 2 || scratch[3] != 5 {
		t.Fatalf("scatter failed: %v", scratch)
	}
	v.GatherFrom(scratch)
	for i, s := range scratch {
		if s != 0 {
			t.Fatalf("scratch[%d]=%v after gather", i, s)
		}
	}
}

func TestVectorValidate(t *testing.T) {
	good := NewVectorDense([]float64{1, 0, 2})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	bad := Vector{Index: []int32{1, 1}, Value: []float64{1, 2}, Dim: 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate index accepted")
	}
	bad2 := Vector{Index: []int32{5}, Value: []float64{1}, Dim: 3}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	bad3 := Vector{Index: []int32{0}, Value: []float64{math.NaN()}, Dim: 3}
	if err := bad3.Validate(); err == nil {
		t.Fatal("NaN value accepted")
	}
	bad4 := Vector{Index: []int32{0, 1}, Value: []float64{1}, Dim: 3}
	if err := bad4.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	v := NewVectorDense([]float64{1, 2, 3})
	c := v.Clone()
	c.Value[0] = 99
	if v.Value[0] == 99 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestVectorResetKeepsCapacity(t *testing.T) {
	v := NewVectorDense([]float64{1, 2, 3, 4})
	capBefore := cap(v.Index)
	v = v.Reset(10)
	if v.NNZ() != 0 || v.Dim != 10 {
		t.Fatalf("Reset: %+v", v)
	}
	if cap(v.Index) != capBefore {
		t.Fatal("Reset reallocated")
	}
}
