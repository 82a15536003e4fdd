package svm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestRowCacheLRU(t *testing.T) {
	c := newRowCache(2)
	c.put(1, []float64{1})
	c.put(2, []float64{2})
	if got := c.get(1); got == nil || got[0] != 1 {
		t.Fatalf("get(1) = %v", got)
	}
	// 1 is now MRU; inserting 3 evicts 2.
	c.put(3, []float64{3})
	if c.get(2) != nil {
		t.Fatal("2 should have been evicted")
	}
	if c.get(1) == nil || c.get(3) == nil {
		t.Fatal("1 and 3 should be cached")
	}
	if len(c.rows) != 2 {
		t.Fatalf("len = %d", len(c.rows))
	}
}

func TestRowCachePutOverwrites(t *testing.T) {
	c := newRowCache(2)
	c.put(7, []float64{1, 2})
	c.put(7, []float64{3, 4})
	got := c.get(7)
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("overwrite failed: %v", got)
	}
	if len(c.rows) != 1 {
		t.Fatalf("duplicate insert grew cache: %d", len(c.rows))
	}
}

func TestRowCacheNilSafe(t *testing.T) {
	var c *rowCache // capacity 0 => disabled
	c = newRowCache(0)
	if c != nil {
		t.Fatal("capacity 0 should return nil cache")
	}
	if c.get(1) != nil {
		t.Fatal("nil cache get should be nil")
	}
	c.put(1, []float64{1}) // must not panic
	c.keep([]int{0})
}

func TestRowCacheSingleSlot(t *testing.T) {
	c := newRowCache(1)
	c.put(1, []float64{1})
	c.put(2, []float64{2})
	if c.get(1) != nil {
		t.Fatal("1 should be evicted")
	}
	if got := c.get(2); got == nil || got[0] != 2 {
		t.Fatalf("get(2) = %v", got)
	}
	c.put(3, []float64{3})
	if got := c.get(3); got == nil || got[0] != 3 {
		t.Fatalf("get(3) = %v", got)
	}
}

func TestCachedTrainingMatchesUncached(t *testing.T) {
	b, y := blobs(100, 5, 2.0, 21)
	m := b.MustBuild(sparse.CSR)
	plain, ps, err := Train(m, y, Config{Kernel: KernelParams{Type: Gaussian, Gamma: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	cached, cs, err := Train(m, y, Config{Kernel: KernelParams{Type: Gaussian, Gamma: 0.2}, CacheRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Iterations != cs.Iterations {
		t.Fatalf("cache changed trajectory: %d vs %d iterations", ps.Iterations, cs.Iterations)
	}
	if math.Abs(plain.B-cached.B) > 1e-12 {
		t.Fatalf("cache changed bias: %v vs %v", plain.B, cached.B)
	}
}

func TestSecondOrderConvergesAndMatchesAccuracy(t *testing.T) {
	b, y := blobs(120, 5, 2.0, 22)
	m := b.MustBuild(sparse.CSR)
	first, fs, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	second, ss, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}, SecondOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged {
		t.Fatalf("WSS2 did not converge in %d iterations", ss.Iterations)
	}
	accFirst := first.Accuracy(m, y, nil)
	accSecond := second.Accuracy(m, y, nil)
	if math.Abs(accFirst-accSecond) > 0.03 {
		t.Fatalf("accuracies diverge: %v vs %v", accFirst, accSecond)
	}
	// Both reach (approximately) the same dual optimum.
	if math.Abs(fs.Objective-ss.Objective) > 0.05*(1+math.Abs(fs.Objective)) {
		t.Fatalf("objectives diverge: %v vs %v", fs.Objective, ss.Objective)
	}
	t.Logf("first-order %d iterations, second-order %d", fs.Iterations, ss.Iterations)
}

func TestSecondOrderFewerIterationsOnHardProblem(t *testing.T) {
	// Overlapping classes with a gaussian kernel: the regime where WSS2's
	// guaranteed-decrease selection pays off.
	b, y := blobs(200, 6, 0.8, 23)
	m := b.MustBuild(sparse.CSR)
	_, fs, err := Train(m, y, Config{C: 5, Kernel: KernelParams{Type: Gaussian, Gamma: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	_, ss, err := Train(m, y, Config{C: 5, Kernel: KernelParams{Type: Gaussian, Gamma: 0.3}, SecondOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Converged || !fs.Converged {
		t.Fatalf("convergence: first=%v second=%v", fs.Converged, ss.Converged)
	}
	if ss.Iterations > fs.Iterations*3/2 {
		t.Fatalf("WSS2 took %d iterations vs first-order %d; expected no blow-up", ss.Iterations, fs.Iterations)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	for _, kp := range []KernelParams{
		{Type: Linear},
		{Type: Polynomial, A: 0.5, R: 1.5, Degree: 3},
		{Type: Gaussian, Gamma: 0.25},
		{Type: Sigmoid, A: 0.1, R: -0.5},
	} {
		b, y := blobs(60, 4, 2.0, 24)
		m := b.MustBuild(sparse.CSR)
		model, _, err := Train(m, y, Config{Kernel: kp})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("%v: %v", kp.Type, err)
		}
		if loaded.Kernel.Type != kp.Type || loaded.B != model.B || len(loaded.SVs) != len(model.SVs) {
			t.Fatalf("%v: header mismatch", kp.Type)
		}
		// Decisions must agree exactly on every training row.
		var v sparse.Vector
		for i := 0; i < 60; i++ {
			v = m.RowTo(v, i)
			a, bb := model.Decision(v), loaded.Decision(v)
			if math.Abs(a-bb) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("%v: decision mismatch at row %d: %v vs %v", kp.Type, i, a, bb)
			}
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	cases := map[string]string{
		"bad kernel":      "kernel_type warp\nSV\n",
		"bad header line": "kernel_type\nSV\n",
		"unknown key":     "zorp 3\nSV\n",
		"bad rho":         "kernel_type linear\nrho abc\nSV\n",
		"sv count":        "kernel_type linear\ntotal_sv 5\nSV\n1 1:1\n",
		"bad coef":        "kernel_type linear\nSV\nxyz 1:1\n",
		"bad feature":     "kernel_type linear\nSV\n1 0:1\n",
		"missing colon":   "kernel_type linear\nSV\n1 17\n",
		"unsorted":        "kernel_type linear\nSV\n1 3:1 2:1\n",
		"bad gamma":       "kernel_type gaussian\ngamma -1\nSV\n",
	}
	for name, in := range cases {
		if _, err := LoadModel(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestConfigShrinkingFlagDispatches(t *testing.T) {
	b, y := blobs(80, 4, 2.0, 73)
	m := b.MustBuild(sparse.CSR)
	model, stats, err := Train(m, y, Config{C: 1, Kernel: KernelParams{Type: Linear}, Shrinking: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("shrinking-flag path did not converge")
	}
	if acc := model.Accuracy(m, y, nil); acc < 0.97 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestSVRCacheMatchesUncached(t *testing.T) {
	m, y := linearTargets(80, 3, 0.4, 0.02, 74)
	cfg := RegressionConfig{C: 5, Epsilon: 0.05, Kernel: KernelParams{Type: Gaussian, Gamma: 0.5}}
	plain, ps, err := TrainRegression(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheRows = 64
	cached, cs, err := TrainRegression(m, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Iterations != cs.Iterations {
		t.Fatalf("cache changed SVR trajectory: %d vs %d", ps.Iterations, cs.Iterations)
	}
	if math.Abs(plain.B-cached.B) > 1e-12 {
		t.Fatalf("cache changed SVR offset: %v vs %v", plain.B, cached.B)
	}
}

func TestDecisionBatchMatchesScalar(t *testing.T) {
	b, y := blobs(60, 4, 2.0, 75)
	m := b.MustBuild(sparse.CSR)
	model, _, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	batch := model.DecisionBatch(m, texec(t, 3))
	var v sparse.Vector
	for i := 0; i < 60; i++ {
		v = m.RowTo(v, i)
		if got := model.Decision(v); got != batch[i] {
			t.Fatalf("row %d: %v != %v", i, got, batch[i])
		}
	}
}
