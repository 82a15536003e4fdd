package svm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// candidatePredictor answers every query with one joint candidate, so a
// predict-policy scheduler hands TrainAdaptive exactly that candidate.
type candidatePredictor struct{ c sparse.Candidate }

func (p candidatePredictor) PredictCandidate(dataset.Features) (sparse.Candidate, float64, bool) {
	return p.c, 1, true
}

// schedRecorder wraps a matrix and notes the schedule every SMSV product is
// dispatched under. It forwards the fused pair kernel, so a fused candidate
// still runs fused; the variants tied to a concrete type (rowblocked,
// branchfree) degrade to the base kernel on it, which is fine for reading
// the schedule.
type schedRecorder struct {
	sparse.Matrix
	single, paired map[exec.Sched]int
}

func (r *schedRecorder) MulVecSparse(dst []float64, x sparse.Vector, scratch []float64, ex *exec.Exec) {
	r.single[ex.Sched()]++
	r.Matrix.MulVecSparse(dst, x, scratch, ex)
}

func (r *schedRecorder) MulVecSparse2(dst1, dst2 []float64, x1, x2 sparse.Vector, scratch1, scratch2 []float64, ex *exec.Exec) {
	r.paired[ex.Sched()]++
	r.Matrix.(sparse.PairMultiplier).MulVecSparse2(dst1, dst2, x1, x2, scratch1, scratch2, ex)
}

func sameModelBits(a, b *Model) bool {
	if math.Float64bits(a.B) != math.Float64bits(b.B) || len(a.Coef) != len(b.Coef) {
		return false
	}
	for i := range a.Coef {
		if math.Float64bits(a.Coef[i]) != math.Float64bits(b.Coef[i]) {
			return false
		}
	}
	return true
}

// TestTrainAdaptiveRunsChosenCandidate: the solver TrainAdaptive starts runs
// the scheduled candidate — its kernel variant, seen in the kernel counters,
// under its chunk policy, seen by a recording matrix — where it used to run
// the format's fused kernel under the caller's schedule whatever had been
// chosen. The variants of a format agree bit for bit, so the model must be
// Train's on that format.
func TestTrainAdaptiveRunsChosenCandidate(t *testing.T) {
	b, y, _ := allocProblem(t)
	const iters = 40
	for _, c := range []sparse.Candidate{
		{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantRowBlocked},
		{Format: sparse.CSR, Chunk: sparse.ChunkStatic, Variant: sparse.VariantFused},
		{Format: sparse.ELL, Chunk: sparse.ChunkStatic, Variant: sparse.VariantBranchFree},
		{Format: sparse.COO},
		core.ColumnCandidate,
	} {
		stats := &exec.Stats{}
		ex := texec(t, 2).WithStats(stats)
		sched := core.New(core.Config{Policy: core.PolicyPredict, Predictor: candidatePredictor{c}, Exec: ex})
		cfg := Config{C: 1, MaxIter: iters, Exec: ex}
		res, err := TrainAdaptive(b, y, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision.Rung != core.RungPredictor || res.Decision.ChosenCandidate != c || res.Stats.Iterations != iters {
			t.Fatalf("%v: decision %v (from %v), %d iterations", c, res.Decision.ChosenCandidate, res.Decision.Rung, res.Stats.Iterations)
		}
		// A predicted decision measures nothing: every counted call is the
		// solver's. Fused is one KindPair call per iteration; any other variant
		// is two calls of the format's own kind.
		kind, calls := exec.KindPair, int64(iters)
		if c.Variant != sparse.VariantFused {
			kind, calls = map[sparse.Format]exec.Kind{sparse.CSR: exec.KindCSR, sparse.ELL: exec.KindELL, sparse.COO: exec.KindCOO}[c.Format], 2*iters
		}
		snap := stats.Snapshot()
		if len(snap) != 1 || snap[0].Kind != kind || snap[0].Calls != calls {
			t.Errorf("%v: kernel counters %+v, want %d calls of %v only", c, snap, calls, kind)
		}

		// Every layout gives the same bits: the column candidate's model is
		// the row formats' too.
		for _, f := range []sparse.Format{c.Format, sparse.CSR} {
			want, _, err := Train(b.MustBuild(f), y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameModelBits(res.Model, want) {
				t.Errorf("%v: TrainAdaptive's model differs from Train's on %v", c, f)
			}
		}

		// The chunk policy: every product of a solver started with the
		// candidate is dispatched under its schedule, though cfg.Exec is static.
		rec := &schedRecorder{Matrix: b.MustBuild(c.Format), single: map[exec.Sched]int{}, paired: map[exec.Sched]int{}}
		cfg.chosen = &c
		if _, _, err := Train(rec, y, cfg); err != nil {
			t.Fatal(err)
		}
		sched2, other := c.Chunk.Sched(), exec.Guided
		if sched2 == exec.Guided {
			other = exec.Static
		}
		n, wrong := rec.single[sched2]+2*rec.paired[sched2], rec.single[other]+rec.paired[other]
		if n != 2*iters || wrong != 0 || (rec.paired[sched2] > 0) != (c.Variant == sparse.VariantFused) {
			t.Errorf("%v: %d single and %d paired products under %v, %d under %v", c, rec.single[sched2], rec.paired[sched2], sched2, wrong, other)
		}
	}

	// ε-SVR takes the same route. Its second-order selection computes the
	// two rows one at a time, so every product is a single SMSV of the
	// format's own kind, as in a classification SecondOrder run.
	_, _, target := allocProblem(t)
	for _, c := range []sparse.Candidate{
		{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantRowBlocked},
		core.ColumnCandidate,
	} {
		stats := &exec.Stats{}
		ex := texec(t, 2).WithStats(stats)
		sched := core.New(core.Config{Policy: core.PolicyPredict, Predictor: candidatePredictor{c}, Exec: ex})
		rcfg := RegressionConfig{C: 1, Epsilon: 0.1, MaxIter: iters, Exec: ex}
		res, err := TrainRegressionAdaptive(b, target, sched, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		kind := map[sparse.Format]exec.Kind{sparse.CSR: exec.KindCSR, sparse.CSC: exec.KindCSC}[c.Format]
		if snap := stats.Snapshot(); len(snap) != 1 || snap[0].Kind != kind || snap[0].Calls != 2*iters {
			t.Errorf("ε-SVR under %v: kernel counters %+v, want %d calls of %v only", c, snap, 2*iters, kind)
		}
		want, _, err := TrainRegression(b.MustBuild(sparse.CSR), target, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Model.B) != math.Float64bits(want.B) || len(res.Model.Coef) != len(want.Coef) {
			t.Fatalf("ε-SVR under %v: B %v with %d SVs, TrainRegression on CSR %v with %d", c, res.Model.B, len(res.Model.Coef), want.B, len(want.Coef))
		}
		for i := range want.Coef {
			if math.Float64bits(res.Model.Coef[i]) != math.Float64bits(want.Coef[i]) {
				t.Fatalf("ε-SVR under %v: coefficient %d differs from TrainRegression's on CSR", c, i)
			}
		}
	}
}

// TestColumnJobReadsRowsFromTriplets: the matrix a decision for the column
// candidate carries reads its rows — the working pair, the Gaussian norms,
// the support vectors, a shrink's submatrix — from the builder's triplets,
// never through CSC's RowTo, which probes every column; and a job on it
// gives the CSR job's model. The second check doubles the triplets' values
// under the decided matrix, which is exact: a job that reads every row from
// them is then, bit for bit, the job whose products are X's and whose rows
// are 2X's.
func TestColumnJobReadsRowsFromTriplets(t *testing.T) {
	gaussian := KernelParams{Type: Gaussian, Gamma: 0.05}
	for _, cfg := range []Config{
		{C: 1, MaxIter: 200, Kernel: gaussian},
		{C: 0.1, MaxIter: 400, Shrinking: true, SecondOrder: true, CacheRows: 8},
	} {
		b, y, _ := allocProblem(t)
		cfg.Exec = texec(t, 2)
		sched := core.New(core.Config{Policy: core.PolicyPredict, Predictor: candidatePredictor{core.ColumnCandidate}, Exec: cfg.Exec})
		dec, err := sched.Choose(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dec.Matrix.(*sparse.ColumnMatrix); !ok {
			t.Fatalf("the column candidate's decision carries a %T", dec.Matrix)
		}
		csr := b.MustBuild(sparse.CSR)
		check := func(what string, want sparse.Matrix) {
			t.Helper()
			w, _, err := Train(want, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Train(dec.Matrix, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameModelBits(got, w) || !sameSupportVectors(got.SVs, w.SVs) {
				t.Errorf("%+v: the job on the decided matrix differs from %s", cfg, what)
			}
		}
		check("the CSR job", csr)

		tr := b.Triplets()
		for k := range tr.Val {
			tr.Val[k] *= 2
		}
		doubled := sparse.NewBuilder(b.Dims())
		var v sparse.Vector
		for i := 0; i < tr.Rows; i++ {
			v = tr.RowTo(v, i)
			doubled.AddRow(i, v)
		}
		check("the job with X's products and 2X's rows", rowSwap{Matrix: csr, rows: doubled.MustBuild(sparse.CSR)})
	}
}

// rowSwap is a matrix whose products are one matrix's and whose rows are
// another's.
type rowSwap struct {
	sparse.Matrix
	rows sparse.Matrix
}

func (m rowSwap) RowTo(dst sparse.Vector, i int) sparse.Vector { return m.rows.RowTo(dst, i) }

func sameSupportVectors(a, b []sparse.Vector) bool {
	return slices.EqualFunc(a, b, func(v, w sparse.Vector) bool {
		return slices.Equal(v.Index, w.Index) && slices.Equal(v.Value, w.Value)
	})
}

// TestTrainOnDecidedMatrixIsTrainAdaptive: a decision's matrix trains as it
// stands. On every Table VI clone, under the hybrid policy that picks the
// column candidate on most of them, Train on the decided matrix gives
// TrainAdaptive's model bit for bit, and TrainRegression
// TrainRegressionAdaptive's, at one and two workers.
func TestTrainOnDecidedMatrixIsTrainAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("nine clones, each scheduled and trained four times")
	}
	const iters = 60
	for _, name := range dataset.Table6Names {
		d, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := d.MustGenerate(1)
		rng := testRandSVM(5)
		y := dataset.PlantedLabels(b.MustBuild(sparse.CSR), 0.02, rng)
		target := make([]float64, len(y))
		for i, l := range y {
			target[i] = l + 0.3*rng.NormFloat64()
		}
		for _, workers := range []int{1, 2} {
			ex := texec(t, workers)
			sched := core.New(core.Config{Policy: core.Hybrid, Exec: ex, Seed: 1})

			cfg := Config{C: 1, MaxIter: iters, Exec: ex}
			res, err := TrainAdaptive(b, y, sched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			model, _, err := Train(res.Decision.Matrix, y, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameModelBits(model, res.Model) || !sameSupportVectors(model.SVs, res.Model.SVs) {
				t.Errorf("%s, %d workers, %v: Train on the decided matrix differs from TrainAdaptive", name, workers, res.Decision.ChosenCandidate)
			}

			rcfg := RegressionConfig{C: 1, Epsilon: 0.1, MaxIter: iters, Exec: ex}
			rres, err := TrainRegressionAdaptive(b, target, sched, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			rmodel, _, err := TrainRegression(rres.Decision.Matrix, target, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			same := math.Float64bits(rmodel.B) == math.Float64bits(rres.Model.B) &&
				slices.EqualFunc(rmodel.Coef, rres.Model.Coef, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) &&
				sameSupportVectors(rmodel.SVs, rres.Model.SVs)
			if !same {
				t.Errorf("%s, %d workers, %v: TrainRegression on the decided matrix differs from TrainRegressionAdaptive", name, workers, rres.Decision.ChosenCandidate)
			}
		}
	}
}
