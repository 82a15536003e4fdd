package dnn

import (
	"math"
	"testing"
)

func TestFixedLR(t *testing.T) {
	var s FixedLR
	for _, it := range []int{0, 1, 1000} {
		if s.Multiplier(it) != 1 {
			t.Fatalf("fixed multiplier at %d != 1", it)
		}
	}
	if s.String() != "fixed" {
		t.Fatal("name")
	}
}

func TestStepLR(t *testing.T) {
	s := StepLR{Step: 100, Gamma: 0.1}
	cases := map[int]float64{0: 1, 99: 1, 100: 0.1, 199: 0.1, 200: 0.01, 350: 0.001}
	for it, want := range cases {
		if got := s.Multiplier(it); math.Abs(got-want) > 1e-12 {
			t.Fatalf("step(%d) = %v, want %v", it, got, want)
		}
	}
	// Zero step degrades to fixed.
	if (StepLR{Step: 0, Gamma: 0.1}).Multiplier(500) != 1 {
		t.Fatal("zero step should be identity")
	}
}

func TestInvLR(t *testing.T) {
	s := InvLR{Gamma: 0.001, Power: 0.75}
	if s.Multiplier(0) != 1 {
		t.Fatal("inv at 0 != 1")
	}
	prev := 1.0
	for _, it := range []int{10, 100, 1000, 10000} {
		m := s.Multiplier(it)
		if m >= prev || m <= 0 {
			t.Fatalf("inv not strictly decreasing positive: %v at %d", m, it)
		}
		prev = m
	}
}

func TestSGDScheduleApplied(t *testing.T) {
	rng := testRand()
	net := NewNetwork(NewDense(1, 1, nil, rng))
	p := net.Params()[0]
	p.W.Data[0] = 1.0
	opt := NewSGD(net, 0.1, 0)
	opt.Schedule = StepLR{Step: 1, Gamma: 0.5} // halve every step
	if opt.EffectiveLR() != 0.1 {
		t.Fatalf("lr at step 0 = %v", opt.EffectiveLR())
	}
	p.Grad.Data[0] = 1
	opt.Step() // W -= 0.1
	if opt.EffectiveLR() != 0.05 {
		t.Fatalf("lr at step 1 = %v", opt.EffectiveLR())
	}
	p.Grad.Data[0] = 1
	opt.Step() // W -= 0.05
	if got, want := p.W.Data[0], 1-0.1-0.05; math.Abs(got-want) > 1e-12 {
		t.Fatalf("W = %v, want %v", got, want)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	rng := testRand()
	net := NewNetwork(NewDense(1, 1, nil, rng))
	p := net.Params()[0]
	p.W.Data[0] = 2.0
	opt := NewSGD(net, 0.1, 0)
	opt.WeightDecay = 0.5
	p.Grad.Data[0] = 0 // pure decay step: g = 0 + 0.5*2 = 1 → W -= 0.1
	opt.Step()
	if got := p.W.Data[0]; math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("W = %v, want 1.9", got)
	}
}

func TestDropoutTrainingAndInference(t *testing.T) {
	d := NewDropout(0.5, 1)
	x := NewTensor(1, 1000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	out := d.Forward(x)
	var zeros, scaled int
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", zeros)
	}
	// Backward masks the same units.
	g := NewTensor(1, 1000)
	for i := range g.Data {
		g.Data[i] = 1
	}
	back := d.Backward(g)
	for i := range back.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
	// Inference: identity.
	d.SetTraining(false)
	inf := d.Forward(x)
	for i := range inf.Data {
		if inf.Data[i] != 1 {
			t.Fatal("inference dropout not identity")
		}
	}
}

func TestDropoutRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v accepted", rate)
				}
			}()
			NewDropout(rate, 1)
		}()
	}
}

func TestSetTrainingMode(t *testing.T) {
	rng := testRand()
	net := NewNetwork(NewDense(4, 4, nil, rng), NewDropout(0.5, 2), NewDense(4, 2, nil, rng))
	SetTrainingMode(net, false)
	x := NewTensor(1, 4)
	for i := range x.Data {
		x.Data[i] = 1
	}
	a := net.Forward(x)
	b := net.Forward(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("inference mode not deterministic")
		}
	}
}

func TestStepDecayStabilizesTraining(t *testing.T) {
	// With an aggressive base η the fixed schedule oscillates; a step
	// decay run must reach at least as good a final accuracy.
	d, err := SyntheticCIFAR(4, 1, 8, 8, 512, 160, 1.2, 19)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sched LRSchedule) float64 {
		net := MLP(d.Classes, d.C*d.H*d.W, 32, nil, 20)
		opt := NewSGD(net, 0.08, 0.9)
		opt.Schedule = sched
		idx := make([]int, 32)
		it := 0
		for epoch := 0; epoch < 12; epoch++ {
			for lo := 0; lo+32 <= d.NTrain(); lo += 32 {
				for i := range idx {
					idx[i] = lo + i
				}
				x, y := d.BatchInto(nil, nil, idx)
				net.ZeroGrads()
				net.TrainStep(x, y)
				opt.Step()
				it++
			}
		}
		return Evaluate(net, d, 128)
	}
	fixed := run(FixedLR{})
	stepped := run(StepLR{Step: 100, Gamma: 0.3})
	if stepped < fixed-0.05 {
		t.Fatalf("step decay (%v) notably worse than fixed (%v)", stepped, fixed)
	}
}
