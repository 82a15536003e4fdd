// Package metrics provides the evaluation measures used around the
// trainers: confusion matrices and derived classification scores, and the
// standard regression errors. All functions treat prediction/target pairs
// positionally and panic-free: malformed input returns an error or a
// degenerate-but-defined value (documented per function).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// ConfusionMatrix counts predictions per (true, predicted) class pair.
type ConfusionMatrix struct {
	Classes []float64 // sorted distinct labels
	Counts  [][]int   // Counts[t][p]: true class t predicted as p
	index   map[float64]int
}

// Confusion builds the confusion matrix over all labels present in either
// slice.
func Confusion(yTrue, yPred []float64) (*ConfusionMatrix, error) {
	if len(yTrue) != len(yPred) {
		return nil, fmt.Errorf("metrics: %d truths vs %d predictions", len(yTrue), len(yPred))
	}
	set := map[float64]bool{}
	for _, y := range yTrue {
		set[y] = true
	}
	for _, y := range yPred {
		set[y] = true
	}
	cm := &ConfusionMatrix{index: map[float64]int{}}
	for c := range set {
		cm.Classes = append(cm.Classes, c)
	}
	sort.Float64s(cm.Classes)
	for i, c := range cm.Classes {
		cm.index[c] = i
	}
	cm.Counts = make([][]int, len(cm.Classes))
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, len(cm.Classes))
	}
	for i := range yTrue {
		cm.Counts[cm.index[yTrue[i]]][cm.index[yPred[i]]]++
	}
	return cm, nil
}

// Accuracy returns the fraction of correct predictions (0 for empty input).
func Accuracy(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return 0
	}
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

// Precision returns TP/(TP+FP) for the given class; 0 when the class was
// never predicted.
func (cm *ConfusionMatrix) Precision(class float64) float64 {
	p, ok := cm.index[class]
	if !ok {
		return 0
	}
	var predicted int
	for t := range cm.Counts {
		predicted += cm.Counts[t][p]
	}
	if predicted == 0 {
		return 0
	}
	return float64(cm.Counts[p][p]) / float64(predicted)
}

// Recall returns TP/(TP+FN) for the given class; 0 when the class never
// occurs in the truth.
func (cm *ConfusionMatrix) Recall(class float64) float64 {
	t, ok := cm.index[class]
	if !ok {
		return 0
	}
	var actual int
	for p := range cm.Counts[t] {
		actual += cm.Counts[t][p]
	}
	if actual == 0 {
		return 0
	}
	return float64(cm.Counts[t][t]) / float64(actual)
}

// F1 returns the harmonic mean of precision and recall for the class; 0
// when both are 0.
func (cm *ConfusionMatrix) F1(class float64) float64 {
	p, r := cm.Precision(class), cm.Recall(class)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MSE returns the mean squared error (0 for empty input).
func MSE(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return 0
	}
	var sum float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		sum += d * d
	}
	return sum / float64(len(yTrue))
}

// MAE returns the mean absolute error (0 for empty input).
func MAE(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return 0
	}
	var sum float64
	for i := range yTrue {
		sum += math.Abs(yTrue[i] - yPred[i])
	}
	return sum / float64(len(yTrue))
}

// R2 returns the coefficient of determination 1 − SS_res/SS_tot; for a
// constant truth vector it returns 1 when predictions match exactly and
// −Inf-free 0 otherwise.
func R2(yTrue, yPred []float64) float64 {
	n := len(yTrue)
	if n == 0 || n != len(yPred) {
		return 0
	}
	var mean float64
	for _, y := range yTrue {
		mean += y
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		m := yTrue[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
