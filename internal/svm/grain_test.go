package svm

import (
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/sparse"
)

// TestLoopsBitIdenticalAcrossWorkersAboveGrain: the selection sweeps and the
// update loops run inline below exec's serial grain, so a problem of a few
// hundred rows never reaches their partial-merge path. This one has more
// rows than the grain: every loop must still land on the serial trajectory,
// bit for bit, at 2 and 3 workers.
func TestLoopsBitIdenticalAcrossWorkersAboveGrain(t *testing.T) {
	rng := testRandSVM(17)
	const rows, cols = 5000, 6
	b := sparse.NewBuilder(rows, cols)
	y, target := make([]float64, rows), make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.5 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
		y[i] = 1
		if rng.Intn(2) == 0 {
			y[i] = -1
		}
		target[i] = rng.NormFloat64()
	}
	m := b.MustBuild(sparse.CSR)
	type result struct {
		iters     int
		b, obj    uint64
		coef      []float64
		supported int
	}
	train := func(name string, ex *exec.Exec) result {
		var st Stats
		var err error
		var bias float64
		var coef []float64
		switch name {
		case "svr":
			var mod *RegressionModel
			mod, st, err = TrainRegression(m, target, RegressionConfig{C: 1, Epsilon: 0.05, MaxIter: 40, Exec: ex})
			bias, coef = mod.B, mod.Coef
		default:
			var mod *Model
			cfg := loopConfigs[name]
			cfg.C, cfg.MaxIter, cfg.Exec = 1, 40, ex
			mod, st, err = Train(m, y, cfg)
			bias, coef = mod.B, mod.Coef
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return result{st.Iterations, math.Float64bits(bias), math.Float64bits(st.Objective), coef, st.NumSV}
	}
	names := []string{"svr"}
	for name := range loopConfigs {
		names = append(names, name)
	}
	for _, name := range names {
		want := train(name, exec.Serial())
		for _, workers := range []int{2, 3} {
			got := train(name, texec(t, workers))
			if got.iters != want.iters || got.b != want.b || got.obj != want.obj || got.supported != want.supported {
				t.Fatalf("%s at %d workers: %+v, serial %+v", name, workers, got, want)
			}
			for k := range want.coef {
				if math.Float64bits(got.coef[k]) != math.Float64bits(want.coef[k]) {
					t.Fatalf("%s at %d workers: coefficient %d differs from the serial run", name, workers, k)
				}
			}
		}
	}
}
