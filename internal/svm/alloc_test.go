package svm

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/sparse"
)

// allocProblem is a non-separable problem that keeps every loop iterating
// well past 60 steps: random sparse rows with coin-flip labels.
func allocProblem(t *testing.T) (*sparse.Builder, []float64, []float64) {
	t.Helper()
	rng := testRandSVM(11)
	const rows, cols = 300, 40
	b := sparse.NewBuilder(rows, cols)
	y, target := make([]float64, rows), make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.2 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		y[i] = 1
		if rng.Intn(2) == 0 {
			y[i] = -1
		}
		target[i] = rng.NormFloat64()
	}
	return b, y, target
}

// TestTrainSteadyStateAllocs is the allocation contract of the SMO loops
// (DESIGN §6): the steady-state iteration of the classification loop, in
// every configuration, and of ε-SVR allocates nothing of its own on a
// pooled context, on every basic format and on the column candidate —
// the SMSV kernels dispatch in closure-free form on recycled run records, the
// sweep bodies and their partial results live on the solver. Measured as a
// 60-iteration job minus a 10-iteration one, so that set-up and the model
// cancel. The limit is not zero because the two row buffers grow a few times
// while longer rows turn up (6 objects at most on these inputs); it is far
// below the 50 that a single closure or slice per iteration would cost.
func TestTrainSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		// make test-race pairs -short with the race detector, under which
		// sync.Pool drops items at random and the record pool allocates.
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	b, y, target := allocProblem(t)
	ex := texec(t, 2)
	const short, long, limit = 10, 60, 10

	type job func(l trainLayout, maxIter int) (Stats, error)
	classify := func(cfg Config) job {
		return func(l trainLayout, maxIter int) (Stats, error) {
			cfg := l.config(cfg)
			cfg.Exec, cfg.MaxIter = ex, maxIter
			_, st, err := Train(l.m, y, cfg)
			return st, err
		}
	}
	loops := []struct {
		name string
		run  job
	}{
		{"run", classify(Config{C: 1})},
		{"run/unfused", classify(Config{C: 1, Unfused: true})},
		{"run/gaussian", classify(Config{C: 1, Kernel: KernelParams{Type: Gaussian, Gamma: 0.05}})},
		{"secondOrder", classify(Config{C: 1, SecondOrder: true})},
		{"shrinking", classify(Config{C: 1, Shrinking: true})},
		{"shrinking/secondOrder", classify(Config{C: 1, Shrinking: true, SecondOrder: true})},
		{"shrinking/cacheRows", classify(Config{C: 1, Shrinking: true, CacheRows: 4})},
		{"svr", func(l trainLayout, maxIter int) (Stats, error) {
			_, st, err := TrainRegression(l.m, target, RegressionConfig{C: 1, Epsilon: 0.01, MaxIter: maxIter, Exec: ex, rows: l.rows, chosen: l.chosen})
			return st, err
		}},
	}
	for _, l := range trainLayouts(b) {
		for _, loop := range loops {
			t.Run(l.name+"/"+loop.name, func(t *testing.T) {
				measure := func(maxIter int) float64 {
					var st Stats
					var err error
					allocs := testing.AllocsPerRun(5, func() { st, err = loop.run(l, maxIter) })
					if err != nil {
						t.Fatal(err)
					}
					if st.Iterations != maxIter {
						t.Fatalf("stopped after %d of %d iterations: the problem is too easy to measure a steady state on", st.Iterations, maxIter)
					}
					return allocs
				}
				if base, full := measure(short), measure(long); full-base > limit {
					t.Fatalf("%v objects for %d iterations, %v for %d: the %d extra iterations may allocate %d in all",
						full, long, base, short, long-short, limit)
				}
			})
		}
	}
}

// TestLinearJobAllocsIndependentOfNumSV: a whole linear job costs a fixed
// number of objects — the solver's arrays, its bound loop bodies, the model
// with one index arena and one value arena — however many support vectors
// it ends with.
func TestLinearJobAllocsIndependentOfNumSV(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	b, y, _ := allocProblem(t)
	m := b.MustBuild(sparse.CSR)
	ex := texec(t, 2)
	job := func(maxIter int) (allocs float64, numSV int) {
		allocs = testing.AllocsPerRun(5, func() {
			_, st, err := Train(m, y, Config{C: 1, MaxIter: maxIter, Exec: ex})
			if err != nil {
				t.Fatal(err)
			}
			numSV = st.NumSV
		})
		return allocs, numSV
	}
	few, fewSV := job(5)
	many, manySV := job(150)
	if manySV < 10*fewSV {
		t.Fatalf("%d and %d support vectors: want the long job to end with at least ten times as many", fewSV, manySV)
	}
	// Only the row buffers may differ: they double a few times as longer
	// rows turn up, which is logarithmic in the longest row, not in NumSV.
	if many-few > 8 {
		t.Fatalf("%v objects with %d support vectors, %v with %d: a job's allocations must not grow with NumSV", few, fewSV, many, manySV)
	}
}

// rowCounter counts RowTo calls on the matrix it wraps.
type rowCounter struct {
	sparse.Matrix
	rowTo int
}

func (c *rowCounter) RowTo(dst sparse.Vector, i int) sparse.Vector {
	c.rowTo++
	return c.Matrix.RowTo(dst, i)
}

// TestSetUpReadsNormsOnlyWhenNeeded: ‖X_i‖² is one RowTo per row — rows ×
// cols on Dense — and only the Gaussian transform and SecondOrder's diagonal
// read it, so no other job may pay for it in set-up.
func TestSetUpReadsNormsOnlyWhenNeeded(t *testing.T) {
	b, y, target := allocProblem(t)
	rows, _ := b.Dims()
	gaussian := KernelParams{Type: Gaussian, Gamma: 0.05}
	for _, tc := range []struct {
		name  string
		setUp func(m sparse.Matrix)
		want  int
	}{
		{"linear", func(m sparse.Matrix) { newSolver(m, y, Config{}) }, 0},
		{"polynomial", func(m sparse.Matrix) {
			newSolver(m, y, Config{Kernel: KernelParams{Type: Polynomial, A: 1, R: 1, Degree: 2}})
		}, 0},
		{"gaussian", func(m sparse.Matrix) { newSolver(m, y, Config{Kernel: gaussian}) }, rows},
		{"linear/secondOrder", func(m sparse.Matrix) { newSolver(m, y, Config{SecondOrder: true}) }, rows},
		{"svr/linear", func(m sparse.Matrix) { newSVRSolver(m, target, RegressionConfig{C: 1, Epsilon: 0.1}) }, 0},
		{"svr/gaussian", func(m sparse.Matrix) { newSVRSolver(m, target, RegressionConfig{C: 1, Epsilon: 0.1, Kernel: gaussian}) }, rows},
	} {
		m := &rowCounter{Matrix: b.MustBuild(sparse.DEN)}
		tc.setUp(m)
		if m.rowTo != tc.want {
			t.Errorf("%s: set-up made %d RowTo calls, want %d", tc.name, m.rowTo, tc.want)
		}
	}
}

// TestModelVectorsStandAlone: the model's support vectors are windows of
// one index and one value arena (TestLinearJobAllocsIndependentOfNumSV counts
// them), so each must equal the row it was taken from and be clipped to its
// length — an append to one may not run into the next.
func TestModelVectorsStandAlone(t *testing.T) {
	b, y, _ := allocProblem(t)
	m := b.MustBuild(sparse.ELL)
	model, _, err := Train(m, y, Config{C: 1, MaxIter: 80, Exec: exec.Serial()})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.SVs) < 2 || len(model.SVs) != len(model.Coef) {
		t.Fatalf("%d support vectors, %d coefficients", len(model.SVs), len(model.Coef))
	}
	alphaRows := make(map[int]bool)
	s := newSolver(m, y, Config{C: 1, MaxIter: 80, Exec: exec.Serial()})
	s.run()
	for i, a := range s.alpha {
		if a > 0 {
			alphaRows[i] = true
		}
	}
	var row sparse.Vector
	k := 0
	for i := 0; i < len(y); i++ {
		if !alphaRows[i] {
			continue
		}
		row = m.RowTo(row, i)
		sv := model.SVs[k]
		if sv.Dim != row.Dim || len(sv.Index) != len(row.Index) {
			t.Fatalf("support vector %d: %d entries of dimension %d, row %d has %d of %d", k, len(sv.Index), sv.Dim, i, len(row.Index), row.Dim)
		}
		for e := range row.Index {
			if sv.Index[e] != row.Index[e] || sv.Value[e] != row.Value[e] {
				t.Fatalf("support vector %d differs from row %d at entry %d", k, i, e)
			}
		}
		if cap(sv.Index) != len(sv.Index) || cap(sv.Value) != len(sv.Value) {
			t.Fatalf("support vector %d is not clipped to its length: an append would overwrite its neighbour", k)
		}
		k++
	}
	if k != len(model.SVs) {
		t.Fatalf("model has %d support vectors, the solver %d positive alphas", len(model.SVs), k)
	}
}
