package dnn

import "testing"

func TestAlexNetCIFARShapes(t *testing.T) {
	net := AlexNetCIFAR(10, 3, 32, 32, 1, nil, 1)
	x := NewTensor(2, 3, 32, 32)
	SetTrainingMode(net, false)
	logits := net.Forward(x)
	if logits.Shape[0] != 2 || logits.Shape[1] != 10 {
		t.Fatalf("logits %v", logits.Shape)
	}
	if p := net.NumParams(); p < 2_000_000 || p > 6_000_000 {
		t.Fatalf("NumParams = %d, want CIFAR-AlexNet scale (2-6M)", p)
	}
}

func TestAlexNetCIFARTrainsScaled(t *testing.T) {
	d, err := SyntheticCIFAR(4, 1, 8, 8, 256, 64, 0.8, 41)
	if err != nil {
		t.Fatal(err)
	}
	net := AlexNetCIFAR(d.Classes, d.C, d.H, d.W, 16, nil, 42)
	opt := NewSGD(net, 0.02, 0.9)
	idx := make([]int, 32)
	for epoch := 0; epoch < 50; epoch++ {
		SetTrainingMode(net, true)
		for lo := 0; lo+32 <= d.NTrain(); lo += 32 {
			for i := range idx {
				idx[i] = lo + i
			}
			x, y := d.BatchInto(nil, nil, idx)
			net.ZeroGrads()
			net.TrainStep(x, y)
			opt.Step()
		}
		SetTrainingMode(net, false)
		if Evaluate(net, d, 64) >= 0.8 {
			return
		}
	}
	SetTrainingMode(net, false)
	t.Fatalf("AlexNetCIFAR/16 never reached 0.8 (final %v)", Evaluate(net, d, 64))
}

func TestAlexNetCIFARRejectsBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible dims accepted")
		}
	}()
	AlexNetCIFAR(10, 3, 30, 30, 1, nil, 1)
}
