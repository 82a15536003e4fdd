package dnn_test

import (
	"fmt"
	"math/rand"

	"repro/internal/dnn"
)

// Train a small convnet to the paper's target-accuracy criterion on
// synthetic CIFAR-like data.
func ExampleTrainToTarget() {
	d, err := dnn.SyntheticCIFAR(4, 1, 8, 8, 512, 128, 0.8, 1)
	if err != nil {
		panic(err)
	}
	net := dnn.SmallConvNet(d.Classes, d.C, d.H, d.W, nil, 2)
	res, err := dnn.TrainToTarget(net, d, dnn.TrainConfig{
		Batch: 32, LR: 0.03, Momentum: 0.9, TargetAcc: 0.8, MaxEpochs: 30, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("reached 0.8:", res.Reached)
	// Output:
	// reached 0.8: true
}

// The momentum update follows the paper's Equations (8)-(9) exactly:
// V₁ = 0.5·0 − 0.1·2 = −0.2, W₁ = 1 + V₁ = 0.8.
func ExampleSGD_Step() {
	net := dnn.NewNetwork(dnn.NewDense(1, 1, nil, rand.New(rand.NewSource(1))))
	p := net.Params()[0]
	p.W.Data[0] = 1.0
	opt := dnn.NewSGD(net, 0.1, 0.5)
	p.Grad.Data[0] = 2.0
	opt.Step()
	fmt.Printf("W after one step: %.1f\n", p.W.Data[0])
	// Output:
	// W after one step: 0.8
}

// Data-parallel training (§IV-B) matches single-worker training exactly.
func ExampleNewDataParallel() {
	d, err := dnn.SyntheticCIFAR(3, 1, 4, 4, 96, 24, 1.0, 5)
	if err != nil {
		panic(err)
	}
	build := func(seed int64) *dnn.Network { return dnn.MLP(3, 16, 8, nil, seed) }
	dp, err := dnn.NewDataParallel(build, 4, 0.05, 0.9, 6)
	if err != nil {
		panic(err)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	x, y := d.BatchInto(nil, nil, idx)
	loss := dp.TrainStep(x, y)
	fmt.Println("replicas:", dp.Replicas(), "— first-step loss is finite:", loss > 0)
	// Output:
	// replicas: 4 — first-step loss is finite: true
}
