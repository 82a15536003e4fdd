package metrics

import (
	"math"
	"testing"
)

func TestConfusionAndDerived(t *testing.T) {
	yTrue := []float64{1, 1, 1, 0, 0, 2}
	yPred := []float64{1, 1, 0, 0, 1, 2}
	cm, err := Confusion(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Classes) != 3 {
		t.Fatalf("classes %v", cm.Classes)
	}
	// Class 1: TP=2, FP=1 (a true 0 predicted 1), FN=1 (a true 1 predicted 0).
	if p := cm.Precision(1); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("precision(1) = %v", p)
	}
	if r := cm.Recall(1); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall(1) = %v", r)
	}
	if f := cm.F1(1); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("f1(1) = %v", f)
	}
	// Class 2 is perfect.
	if cm.Precision(2) != 1 || cm.Recall(2) != 1 || cm.F1(2) != 1 {
		t.Fatal("class 2 should be perfect")
	}
	if cm.Precision(99) != 0 || cm.Recall(99) != 0 {
		t.Fatal("unknown class should score 0")
	}
}

func TestConfusionLengthMismatch(t *testing.T) {
	if _, err := Confusion([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy([]float64{1, 2, 3}, []float64{1, 0, 3}); math.Abs(a-2.0/3) > 1e-12 {
		t.Fatalf("accuracy %v", a)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestRegressionMetrics(t *testing.T) {
	yTrue := []float64{1, 2, 3, 4}
	yPred := []float64{1.5, 2, 2.5, 4}
	if m := MSE(yTrue, yPred); math.Abs(m-0.125) > 1e-12 {
		t.Fatalf("MSE %v", m)
	}
	if m := MAE(yTrue, yPred); math.Abs(m-0.25) > 1e-12 {
		t.Fatalf("MAE %v", m)
	}
	r2 := R2(yTrue, yPred)
	// SS_tot = 5 (mean 2.5), SS_res = 0.5: R2 = 0.9.
	if math.Abs(r2-0.9) > 1e-12 {
		t.Fatalf("R2 %v", r2)
	}
	if R2(yTrue, yTrue) != 1 {
		t.Fatal("perfect prediction R2 should be 1")
	}
}

func TestR2ConstantTruth(t *testing.T) {
	c := []float64{5, 5, 5}
	if R2(c, c) != 1 {
		t.Fatal("exact constant prediction should give 1")
	}
	if R2(c, []float64{4, 5, 6}) != 0 {
		t.Fatal("imperfect prediction of a constant should give 0")
	}
}
