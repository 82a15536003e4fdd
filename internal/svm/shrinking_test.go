package svm

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestShrinkingMatchesPlainOnSeparable(t *testing.T) {
	b, y := blobs(150, 4, 2.5, 91)
	m := b.MustBuild(sparse.CSR)
	cfg := Config{C: 1, Kernel: KernelParams{Type: Linear}}
	plain, ps, err := Train(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shrinking = true
	shr, ss, err := Train(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("shrinking did not converge in %d iterations", ss.Iterations)
	}
	// Both must reach the same dual optimum and (near-)identical models.
	if math.Abs(ps.Objective-ss.Objective) > 1e-3*(1+math.Abs(ps.Objective)) {
		t.Fatalf("objectives differ: %v vs %v", ps.Objective, ss.Objective)
	}
	accP := plain.Accuracy(m, y, nil)
	accS := shr.Accuracy(m, y, nil)
	if math.Abs(accP-accS) > 0.02 {
		t.Fatalf("accuracies differ: %v vs %v", accP, accS)
	}
	if math.Abs(plain.B-shr.B) > 0.05*(1+math.Abs(plain.B)) {
		t.Fatalf("biases differ: %v vs %v", plain.B, shr.B)
	}
}

func TestShrinkingMatchesPlainOnOverlapping(t *testing.T) {
	// Overlapping classes put many alphas at the C bound — the regime
	// where shrinking actually removes rows and reconstruction runs.
	b, y := blobs(300, 4, 0.6, 92)
	m := b.MustBuild(sparse.CSR)
	cfg := Config{C: 0.5, Kernel: KernelParams{Type: Gaussian, Gamma: 0.3}, MaxIter: 100000}
	_, ps, err := Train(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shrinking = true
	_, ss, err := Train(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("shrinking did not converge (%d iterations)", ss.Iterations)
	}
	if math.Abs(ps.Objective-ss.Objective) > 1e-2*(1+math.Abs(ps.Objective)) {
		t.Fatalf("objectives differ: %v vs %v", ps.Objective, ss.Objective)
	}
}

func TestShrinkingOnTableVClone(t *testing.T) {
	d, err := dataset.ByName("adult")
	if err != nil {
		t.Fatal(err)
	}
	b := d.MustGenerate(93)
	m := b.MustBuild(sparse.ELL)
	y := dataset.PlantedLabels(m, 0.05, testRandSVM(94))
	cfg := Config{C: 1, Kernel: KernelParams{Type: Linear}, MaxIter: 20000, Shrinking: true}
	model, stats, err := Train(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(m, y, nil); acc < 0.88 {
		t.Fatalf("accuracy %v after %d iterations (converged=%v)", acc, stats.Iterations, stats.Converged)
	}
}

func TestShrinkingRejectsBadInput(t *testing.T) {
	b, y := blobs(20, 3, 2.0, 95)
	m := b.MustBuild(sparse.CSR)
	cfg := Config{Kernel: KernelParams{Type: Linear}, Shrinking: true}
	if _, _, err := Train(m, y[:5], cfg); err == nil {
		t.Fatal("length mismatch accepted")
	}
	one := make([]float64, 20)
	for i := range one {
		one[i] = 1
	}
	if _, _, err := Train(m, one, cfg); err == nil {
		t.Fatal("single class accepted")
	}
}
