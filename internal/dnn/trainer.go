package dnn

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/exec"
)

// TrainConfig drives a time-to-accuracy training run.
type TrainConfig struct {
	Batch     int     // B
	LR        float64 // η
	Momentum  float64 // µ
	TargetAcc float64 // stop when test accuracy reaches this; 0 means run MaxEpochs
	MaxEpochs int     // hard cap
	EvalEvery int     // evaluate test accuracy every this many iterations; 0 = once per epoch
	Seed      int64
}

// TrainResult reports a run's outcome.
type TrainResult struct {
	Iterations int
	Epochs     float64
	Reached    bool
	FinalAcc   float64
	FinalLoss  float64
	Elapsed    time.Duration
	// AccTrace records (iteration, test accuracy) at every evaluation.
	AccTrace []AccPoint
}

// AccPoint is one accuracy evaluation.
type AccPoint struct {
	Iteration int
	Accuracy  float64
}

// SmallConvNet builds a scaled-down cifar10_full-style network for the
// given input geometry: conv→relu→pool→conv→relu→pool→dense→relu→dense.
func SmallConvNet(classes, c, h, w int, ex *exec.Exec, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	f1, f2 := 8, 16
	// Two stride-2 pools shrink H and W by 4 in total.
	flat := f2 * (h / 4) * (w / 4)
	return NewNetwork(
		NewConv2D(c, f1, 3, 1, ex, rng),
		NewReLU(),
		NewMaxPool2D(2, ex),
		NewConv2D(f1, f2, 3, 1, ex, rng),
		NewReLU(),
		NewMaxPool2D(2, ex),
		NewFlatten(),
		NewDense(flat, 32, ex, rng),
		NewReLU(),
		NewDense(32, classes, ex, rng),
	)
}

// Evaluate computes test accuracy in mini-batches; the network's own
// execution context drives the layer kernels. Dropout layers are switched
// to inference mode for the duration and restored afterwards.
func Evaluate(net *Network, d *Dataset, batch int) float64 {
	SetTrainingMode(net, false)
	defer SetTrainingMode(net, true)
	if batch <= 0 {
		batch = 128
	}
	n := d.NTest()
	per := d.C * d.H * d.W
	correct := 0
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		x := NewTensorFrom(d.TestX.Data[lo*per:hi*per], hi-lo, d.C, d.H, d.W)
		pred := net.Predict(x)
		for i, p := range pred {
			if p == d.TestY[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// TrainToTarget runs mini-batch SGD-with-momentum until the test accuracy
// reaches cfg.TargetAcc or cfg.MaxEpochs elapse — the experiment shape of
// the paper's §IV ("our target application is to get 0.8 testing
// accuracy").
func TrainToTarget(net *Network, d *Dataset, cfg TrainConfig) (TrainResult, error) {
	if cfg.Batch <= 0 || cfg.Batch > d.NTrain() {
		return TrainResult{}, fmt.Errorf("dnn: batch %d out of range [1,%d]", cfg.Batch, d.NTrain())
	}
	if cfg.LR <= 0 {
		return TrainResult{}, fmt.Errorf("dnn: learning rate %v <= 0", cfg.LR)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return TrainResult{}, fmt.Errorf("dnn: momentum %v outside [0,1)", cfg.Momentum)
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 50
	}
	itersPerEpoch := d.NTrain() / cfg.Batch
	if itersPerEpoch == 0 {
		itersPerEpoch = 1
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = itersPerEpoch
	}
	opt := NewSGD(net, cfg.LR, cfg.Momentum)
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	perm := rng.Perm(d.NTrain())
	pos := 0
	var res TrainResult
	start := time.Now()
	maxIters := cfg.MaxEpochs * itersPerEpoch
	// One batch tensor is reused for every step: TrainStep consumes its
	// input within the call, so the copy loop is the only per-iteration
	// batch cost and the hot loop stops producing garbage.
	var bx *Tensor
	var by []int
	for it := 0; it < maxIters; it++ {
		if pos+cfg.Batch > len(perm) {
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			pos = 0
		}
		bx, by = d.BatchInto(bx, by, perm[pos:pos+cfg.Batch])
		pos += cfg.Batch
		res.FinalLoss = net.TrainStep(bx, by)
		opt.Step()
		res.Iterations = it + 1
		if (it+1)%evalEvery == 0 || it+1 == maxIters {
			acc := Evaluate(net, d, 256)
			res.AccTrace = append(res.AccTrace, AccPoint{Iteration: it + 1, Accuracy: acc})
			res.FinalAcc = acc
			if cfg.TargetAcc > 0 && acc >= cfg.TargetAcc {
				res.Reached = true
				break
			}
		}
	}
	res.Epochs = float64(res.Iterations) / float64(itersPerEpoch)
	res.Elapsed = time.Since(start)
	if res.FinalAcc == 0 && len(res.AccTrace) == 0 {
		res.FinalAcc = Evaluate(net, d, 256)
	}
	return res, nil
}
