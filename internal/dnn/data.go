package dnn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is an in-memory image-classification dataset in NCHW layout,
// split into train and test partitions like CIFAR-10's 50000/10000.
type Dataset struct {
	Classes int
	C, H, W int
	TrainX  *Tensor // [NTrain, C, H, W]
	TrainY  []int
	TestX   *Tensor // [NTest, C, H, W]
	TestY   []int
}

// NTrain returns the training-set size.
func (d *Dataset) NTrain() int { return len(d.TrainY) }

// NTest returns the test-set size.
func (d *Dataset) NTest() int { return len(d.TestY) }

// BatchInto copies rows idx of the training set into x and y, reusing their
// storage when it fits, and returns the (possibly re-allocated) pair. Pass
// the previous step's return values back in and a fixed-batch training loop
// builds every batch into the same tensor; nil inputs get fresh storage.
func (d *Dataset) BatchInto(x *Tensor, y []int, idx []int) (*Tensor, []int) {
	per := d.C * d.H * d.W
	if x == nil || cap(x.Data) < len(idx)*per {
		x = NewTensor(max(len(idx), 1), d.C, d.H, d.W)
	}
	x.Shape = append(x.Shape[:0], len(idx), d.C, d.H, d.W)
	x.Data = x.Data[:len(idx)*per]
	if cap(y) < len(idx) {
		y = make([]int, len(idx))
	}
	y = y[:len(idx)]
	for k, i := range idx {
		copy(x.Data[k*per:(k+1)*per], d.TrainX.Data[i*per:(i+1)*per])
		y[k] = d.TrainY[i]
	}
	return x, y
}

// SyntheticCIFAR generates a CIFAR-like classification task: `classes`
// random smooth template images of size C×H×W, with each sample a template
// plus Gaussian pixel noise. noise controls difficulty — at noise ≈ 1.5 a
// small convnet needs several epochs to pass 0.8 test accuracy, mimicking
// the paper's CIFAR-10 target regime at laptop scale.
//
// Substitution note: the real CIFAR-10 images are not available offline;
// what the §IV experiments need is a vision-like task whose
// time-to-accuracy responds to B, η and µ, which this provides.
func SyntheticCIFAR(classes, c, h, w, nTrain, nTest int, noise float64, seed int64) (*Dataset, error) {
	if classes < 2 || c < 1 || h < 1 || w < 1 || nTrain < classes || nTest < 1 {
		return nil, fmt.Errorf("dnn: invalid synthetic dataset spec (%d classes, %dx%dx%d, %d train, %d test)",
			classes, c, h, w, nTrain, nTest)
	}
	rng := rand.New(rand.NewSource(seed))
	per := c * h * w
	templates := make([][]float64, classes)
	for k := range templates {
		t := make([]float64, per)
		// Smooth templates: random low-frequency pattern (sum of a few
		// random plane waves) so nearby pixels correlate like real images.
		for wave := 0; wave < 4; wave++ {
			fy := rng.Float64()*2 - 1
			fx := rng.Float64()*2 - 1
			ph := rng.Float64() * 6.28
			amp := rng.NormFloat64()
			for cc := 0; cc < c; cc++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						t[(cc*h+y)*w+x] += amp * math.Cos(fy*float64(y)+fx*float64(x)+ph+float64(cc))
					}
				}
			}
		}
		templates[k] = t
	}
	d := &Dataset{Classes: classes, C: c, H: h, W: w}
	fill := func(n int) (*Tensor, []int) {
		x := NewTensor(n, c, h, w)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			k := i % classes
			y[i] = k
			dst := x.Data[i*per : (i+1)*per]
			for j, tv := range templates[k] {
				dst[j] = tv + rng.NormFloat64()*noise
			}
		}
		return x, y
	}
	d.TrainX, d.TrainY = fill(nTrain)
	d.TestX, d.TestY = fill(nTest)
	return d, nil
}
