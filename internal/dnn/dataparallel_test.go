package dnn

import (
	"math"
	"testing"
)

func buildSmallNet(seed int64) *Network {
	return MLP(3, 16, 8, nil, seed)
}

func TestDataParallelMatchesSerial(t *testing.T) {
	// The weighted-average allreduce makes P-worker training numerically
	// equivalent to single-worker training on the full batch (up to FP
	// reassociation).
	d, err := SyntheticCIFAR(3, 1, 4, 4, 96, 30, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	serial := buildSmallNet(42)
	serialOpt := NewSGD(serial, 0.05, 0.9)
	for _, p := range []int{2, 3, 4} {
		dp, err := NewDataParallel(buildSmallNet, p, 0.05, 0.9, 42)
		if err != nil {
			t.Fatal(err)
		}
		// Fresh serial network per comparison.
		serial = buildSmallNet(42)
		serialOpt = NewSGD(serial, 0.05, 0.9)
		idx := make([]int, 24)
		for i := range idx {
			idx[i] = i
		}
		x, y := d.BatchInto(nil, nil, idx)
		for step := 0; step < 5; step++ {
			serial.ZeroGrads()
			sl := serial.TrainStep(x, y)
			serialOpt.Step()
			pl := dp.TrainStep(x, y)
			if math.Abs(sl-pl) > 1e-9*(1+math.Abs(sl)) {
				t.Fatalf("p=%d step %d: loss %v vs serial %v", p, step, pl, sl)
			}
		}
		sp := serial.Params()
		pp := dp.Network().Params()
		for i := range sp {
			for j := range sp[i].W.Data {
				if math.Abs(sp[i].W.Data[j]-pp[i].W.Data[j]) > 1e-9 {
					t.Fatalf("p=%d: weight drift at param %d[%d]: %v vs %v",
						p, i, j, pp[i].W.Data[j], sp[i].W.Data[j])
				}
			}
		}
	}
}

func TestDataParallelReplicasStayInSync(t *testing.T) {
	d, err := SyntheticCIFAR(3, 1, 4, 4, 60, 20, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDataParallel(buildSmallNet, 3, 0.02, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	x, y := d.BatchInto(nil, nil, idx)
	for step := 0; step < 4; step++ {
		dp.TrainStep(x, y)
	}
	ref := dp.replicas[0].Params()
	for w := 1; w < dp.Replicas(); w++ {
		params := dp.replicas[w].Params()
		for i := range ref {
			for j := range ref[i].W.Data {
				if params[i].W.Data[j] != ref[i].W.Data[j] {
					t.Fatalf("replica %d desynced at param %d[%d]", w, i, j)
				}
			}
		}
	}
}

func TestDataParallelMoreWorkersThanSamples(t *testing.T) {
	d, err := SyntheticCIFAR(3, 1, 4, 4, 30, 10, 1.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDataParallel(buildSmallNet, 8, 0.02, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, y := d.BatchInto(nil, nil, []int{0, 1, 2}) // 3 samples over 8 replicas
	loss := dp.TrainStep(x, y)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
}

func TestDataParallelTrainsToTarget(t *testing.T) {
	d, err := SyntheticCIFAR(4, 1, 8, 8, 256, 80, 0.8, 13)
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed int64) *Network { return MLP(4, 64, 32, nil, seed) }
	dp, err := NewDataParallel(build, 4, 0.03, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 32)
	for epoch := 0; epoch < 40; epoch++ {
		for lo := 0; lo+32 <= d.NTrain(); lo += 32 {
			for i := range idx {
				idx[i] = lo + i
			}
			x, y := d.BatchInto(nil, nil, idx)
			dp.TrainStep(x, y)
		}
		if Evaluate(dp.Network(), d, 64) >= 0.8 {
			return
		}
	}
	t.Fatalf("data-parallel training never reached 0.8 (final %v)", Evaluate(dp.Network(), d, 64))
}

func TestNewDataParallelValidation(t *testing.T) {
	if _, err := NewDataParallel(buildSmallNet, 0, 0.1, 0, 1); err == nil {
		t.Fatal("p=0 accepted")
	}
	// A non-deterministic builder must be rejected.
	counter := int64(0)
	bad := func(seed int64) *Network {
		counter++
		return MLP(3, 16, 8, nil, seed+counter)
	}
	if _, err := NewDataParallel(bad, 2, 0.1, 0, 1); err == nil {
		t.Fatal("non-deterministic builder accepted")
	}
}
