package dnn

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropy is the classification head: softmax over logits and
// mean cross-entropy against integer labels.
type SoftmaxCrossEntropy struct {
	probs  *Tensor
	labels []int
}

// Forward returns the mean loss over the batch; probabilities are cached
// for Backward.
func (s *SoftmaxCrossEntropy) Forward(logits *Tensor, labels []int) float64 {
	b, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		panic(fmt.Sprintf("dnn: %d labels for batch %d", len(labels), b))
	}
	s.probs = NewTensor(b, k)
	s.labels = labels
	var loss float64
	for i := 0; i < b; i++ {
		row := logits.Data[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		prow := s.probs.Data[i*k : (i+1)*k]
		for j, v := range row {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		p := prow[labels[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	return loss / float64(b)
}

// Backward returns ∂L/∂logits = (probs − onehot)/B.
func (s *SoftmaxCrossEntropy) Backward() *Tensor {
	b, k := s.probs.Shape[0], s.probs.Shape[1]
	dout := s.probs.Clone()
	inv := 1.0 / float64(b)
	for i := 0; i < b; i++ {
		dout.Data[i*k+s.labels[i]] -= 1
		for j := 0; j < k; j++ {
			dout.Data[i*k+j] *= inv
		}
	}
	return dout
}

// Network is a sequential stack of layers with a softmax head.
type Network struct {
	Layers []Layer
	Loss   SoftmaxCrossEntropy
}

// NewNetwork assembles a sequential network.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Forward runs the stack and returns the logits.
func (n *Network) Forward(x *Tensor) *Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// TrainStep runs forward + backward on one mini-batch and returns the loss.
// Parameter gradients are accumulated; the caller applies the optimizer.
func (n *Network) TrainStep(x *Tensor, labels []int) float64 {
	logits := n.Forward(x)
	loss := n.Loss.Forward(logits, labels)
	grad := n.Loss.Backward()
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return loss
}

// Params returns every learnable parameter in the network.
func (n *Network) Params() []Param {
	var out []Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Predict returns the argmax class per batch row.
func (n *Network) Predict(x *Tensor) []int {
	logits := n.Forward(x)
	b, k := logits.Shape[0], logits.Shape[1]
	out := make([]int, b)
	for i := 0; i < b; i++ {
		row := logits.Data[i*k : (i+1)*k]
		best := 0
		for j := 1; j < k; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// NumParams counts scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}
