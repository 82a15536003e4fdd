package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// blobs generates two Gaussian blobs at ±center, linearly separable when
// center is large relative to the unit noise.
func blobs(n, dim int, center float64, seed int64) (*sparse.Builder, []float64) {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n, dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		y[i] = sign
		for j := 0; j < dim; j++ {
			b.Add(i, j, sign*center+rng.NormFloat64())
		}
	}
	return b, y
}

func TestTrainSeparableBlobsLinear(t *testing.T) {
	b, y := blobs(120, 4, 3.0, 1)
	m := b.MustBuild(sparse.CSR)
	model, stats, err := Train(m, y, Config{C: 1, Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge in %d iterations", stats.Iterations)
	}
	if acc := model.Accuracy(m, y, nil); acc < 0.99 {
		t.Fatalf("train accuracy %v, want >= 0.99", acc)
	}
	if stats.NumSV == 0 || stats.NumSV > 120 {
		t.Fatalf("NumSV = %d", stats.NumSV)
	}
	if stats.Objective <= 0 {
		t.Fatalf("dual objective %v, want > 0 for a non-trivial solution", stats.Objective)
	}
}

func TestTrainGaussianKernelNonlinear(t *testing.T) {
	// Concentric rings: inner class +1 (radius ~1), outer class −1
	// (radius ~4). Not linearly separable; Gaussian must handle it.
	rng := rand.New(rand.NewSource(2))
	n := 160
	b := sparse.NewBuilder(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		r := 1.0
		y[i] = 1
		if i%2 == 1 {
			r = 4.0
			y[i] = -1
		}
		theta := rng.Float64() * 2 * math.Pi
		b.Add(i, 0, r*math.Cos(theta)+0.1*rng.NormFloat64())
		b.Add(i, 1, r*math.Sin(theta)+0.1*rng.NormFloat64())
	}
	m := b.MustBuild(sparse.DEN)
	model, stats, err := Train(m, y, Config{C: 10, Kernel: KernelParams{Type: Gaussian, Gamma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge in %d iterations", stats.Iterations)
	}
	if acc := model.Accuracy(m, y, nil); acc < 0.97 {
		t.Fatalf("rings accuracy %v, want >= 0.97", acc)
	}
	// A linear kernel cannot do better than ~0.5 on rings; sanity-check
	// that the improvement is real.
	linModel, _, err := Train(m, y, Config{C: 10, Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	if lin := linModel.Accuracy(m, y, nil); lin > 0.8 {
		t.Fatalf("linear kernel suspiciously good on rings: %v", lin)
	}
}

func TestTrainSameModelAcrossFormats(t *testing.T) {
	b, y := blobs(80, 6, 2.5, 3)
	var ref *Model
	var refIters int
	for _, f := range sparse.BasicFormats {
		m, err := b.Build(f)
		if err != nil {
			t.Fatal(err)
		}
		model, stats, err := Train(m, y, Config{C: 1, Kernel: KernelParams{Type: Linear}, Exec: texec(t, 2)})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if ref == nil {
			ref, refIters = model, stats.Iterations
			continue
		}
		// SMO's trajectory is deterministic given the data, so every
		// format must take the same iterations and reach the same bias.
		if stats.Iterations != refIters {
			t.Errorf("%v: %d iterations, want %d", f, stats.Iterations, refIters)
		}
		if math.Abs(model.B-ref.B) > 1e-6 {
			t.Errorf("%v: bias %v, want %v", f, model.B, ref.B)
		}
		if len(model.SVs) != len(ref.SVs) {
			t.Errorf("%v: %d SVs, want %d", f, len(model.SVs), len(ref.SVs))
		}
	}
}

func TestTrainFusedMatchesUnfused(t *testing.T) {
	b, y := blobs(100, 5, 2.0, 4)
	m := b.MustBuild(sparse.CSR)
	fused, fstats, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	unfused, ustats, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}, Unfused: true})
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Iterations != ustats.Iterations {
		t.Fatalf("fused %d iterations, unfused %d", fstats.Iterations, ustats.Iterations)
	}
	if math.Abs(fused.B-unfused.B) > 1e-9 {
		t.Fatalf("fused bias %v != unfused %v", fused.B, unfused.B)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	b, y := blobs(20, 3, 2.0, 5)
	m := b.MustBuild(sparse.CSR)
	if _, _, err := Train(m, y[:10], Config{}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	badY := append([]float64{}, y...)
	badY[0] = 2
	if _, _, err := Train(m, badY, Config{}); err == nil {
		t.Fatal("label 2 accepted")
	}
	oneClass := make([]float64, 20)
	for i := range oneClass {
		oneClass[i] = 1
	}
	if _, _, err := Train(m, oneClass, Config{}); err == nil {
		t.Fatal("single-class accepted")
	}
	if _, _, err := Train(m, y, Config{Kernel: KernelParams{Type: Gaussian}}); err == nil {
		t.Fatal("gamma=0 gaussian accepted")
	}
}

// TestTrainersRejectAlike drives the same bad input through the
// classification configurations: there is one validation, so the error is
// the same whichever was asked for.
func TestTrainersRejectAlike(t *testing.T) {
	b, y := blobs(20, 3, 2.0, 5)
	m := b.MustBuild(sparse.CSR)
	badY := append([]float64{}, y...)
	badY[0] = 2
	oneClass := make([]float64, 20)
	for i := range oneClass {
		oneClass[i] = 1
	}
	linear := KernelParams{Type: Linear}
	cases := []struct {
		name   string
		y      []float64
		kernel KernelParams
		want   string
	}{
		{"length mismatch", y[:10], linear, "svm: 10 labels for 20 rows"},
		{"label outside ±1", badY, linear, "svm: label 2 not in {-1,+1}"},
		{"one class", oneClass, linear, "svm: need both classes, got 20 positive and 0 negative"},
		{"invalid kernel", y, KernelParams{Type: Gaussian}, "svm: gaussian kernel needs gamma > 0, got 0"},
	}
	loops := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"second-order", Config{SecondOrder: true}},
		{"shrinking", Config{Shrinking: true}},
		{"shrinking+second-order", Config{Shrinking: true, SecondOrder: true}},
		{"shrinking+cache", Config{Shrinking: true, CacheRows: 8}},
	}
	for _, c := range cases {
		for _, l := range loops {
			cfg := l.cfg
			cfg.Kernel = c.kernel
			_, _, err := Train(m, c.y, cfg)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, %s: error %v, want %q", c.name, l.name, err, c.want)
			}
		}
	}
}

func TestTrainAlphasRespectBox(t *testing.T) {
	b, y := blobs(60, 3, 0.5, 6) // heavily overlapping: many bound SVs
	m := b.MustBuild(sparse.CSR)
	c := 0.7
	model, _, err := Train(m, y, Config{C: c, Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	for i, coef := range model.Coef {
		if a := math.Abs(coef); a > c+1e-9 {
			t.Fatalf("SV %d has |alpha| %v > C %v", i, a, c)
		}
	}
	// Equality constraint Σ αᵢyᵢ = 0 ⇔ Σ Coef = 0.
	var sum float64
	for _, coef := range model.Coef {
		sum += coef
	}
	if math.Abs(sum) > 1e-6 {
		t.Fatalf("Σ αy = %v, want 0", sum)
	}
}

func TestTrainMaxIterHonored(t *testing.T) {
	b, y := blobs(200, 4, 0.1, 7) // nearly inseparable: slow convergence
	m := b.MustBuild(sparse.CSR)
	_, stats, err := Train(m, y, Config{MaxIter: 5, Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations > 5 {
		t.Fatalf("ran %d iterations with MaxIter=5", stats.Iterations)
	}
}

func TestTrainOnTableVClone(t *testing.T) {
	d, err := dataset.ByName("adult")
	if err != nil {
		t.Fatal(err)
	}
	b := d.MustGenerate(8)
	m := b.MustBuild(sparse.ELL)
	rng := rand.New(rand.NewSource(9))
	y := dataset.PlantedLabels(m, 0.02, rng)
	model, stats, err := Train(m, y, Config{C: 1, Kernel: KernelParams{Type: Linear}, MaxIter: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(m, y, nil); acc < 0.9 {
		t.Fatalf("adult clone accuracy %v after %d iterations, want >= 0.9", acc, stats.Iterations)
	}
}

// TestAccuracyMatchesScalar: Accuracy counts the rows whose Predict matches
// the label, on a problem noisy enough that some do not.
func TestAccuracyMatchesScalar(t *testing.T) {
	b, y := blobs(50, 4, 0.3, 10)
	m := b.MustBuild(sparse.CSR)
	model, _, err := Train(m, y, Config{Kernel: KernelParams{Type: Linear}})
	if err != nil {
		t.Fatal(err)
	}
	var v sparse.Vector
	correct := 0
	for i := 0; i < 50; i++ {
		v = m.RowTo(v, i)
		if model.Predict(v) == y[i] {
			correct++
		}
	}
	if correct == 50 {
		t.Fatal("every row classified right: the test needs a problem with errors")
	}
	if got, want := model.Accuracy(m, y, texec(t, 4)), float64(correct)/50; got != want {
		t.Fatalf("Accuracy %v, the scalar rule %v", got, want)
	}
}
