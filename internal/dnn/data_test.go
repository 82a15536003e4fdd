package dnn

import "testing"

// TestBatchIntoReusesStorage pins the BatchInto contract: the training rows
// idx names, storage reuse when the shapes fit, and zero steady-state
// allocations for a fixed batch size.
func TestBatchIntoReusesStorage(t *testing.T) {
	d, err := SyntheticCIFAR(3, 1, 4, 4, 24, 6, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	idxA := []int{0, 3, 7, 11}
	idxB := []int{2, 5, 9, 13}
	per := d.C * d.H * d.W

	x, y := d.BatchInto(nil, nil, idxA)
	if len(x.Data) != len(idxA)*per || len(y) != len(idxA) {
		t.Fatalf("BatchInto sizes %d/%d, want %d/%d", len(x.Data), len(y), len(idxA)*per, len(idxA))
	}
	for k, i := range idxA {
		for p := 0; p < per; p++ {
			if x.Data[k*per+p] != d.TrainX.Data[i*per+p] {
				t.Fatalf("batch row %d pixel %d differs from training row %d", k, p, i)
			}
		}
		if y[k] != d.TrainY[i] {
			t.Fatalf("batch label %d differs from training row %d", k, i)
		}
	}

	// Same-size refill must reuse the same backing arrays.
	x2, y2 := d.BatchInto(x, y, idxB)
	if &x2.Data[0] != &x.Data[0] || &y2[0] != &y[0] {
		t.Fatal("same-size BatchInto re-allocated")
	}
	wantB, _ := d.BatchInto(nil, nil, idxB)
	for i := range wantB.Data {
		if x2.Data[i] != wantB.Data[i] {
			t.Fatalf("refilled pixel %d stale", i)
		}
	}

	// A smaller batch shrinks the view in place; a larger one may grow.
	x3, y3 := d.BatchInto(x2, y2, idxB[:2])
	if x3.Shape[0] != 2 || len(y3) != 2 || &x3.Data[0] != &x2.Data[0] {
		t.Fatalf("shrink: shape %v len %d", x3.Shape, len(y3))
	}

	allocs := testing.AllocsPerRun(100, func() {
		x, y = d.BatchInto(x, y, idxA)
	})
	if allocs != 0 {
		t.Fatalf("steady-state BatchInto allocates %.1f/op, want 0", allocs)
	}
}
