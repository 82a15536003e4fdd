package svm

import (
	"repro/internal/core"
	"repro/internal/sparse"
)

// AdaptiveResult bundles the scheduler's layout decision with the trained
// model, so callers can see both what was chosen and what it cost.
type AdaptiveResult struct {
	Decision *core.Decision
	Model    *Model
	Stats    Stats
}

// TrainAdaptive is the paper's full pipeline: extract the Table IV
// parameters from the dataset, schedule the storage format, then run SMO on
// the chosen layout. sched selects the decision policy (rule-based,
// empirical or hybrid); cfg drives the SMO solver. The solver runs the whole
// chosen candidate: its kernel variant under its chunk policy, on cfg.Exec's
// workers, whatever schedule cfg.Exec carries — the variants of one format
// agree bit for bit, so the model is Train's on that format.
func TrainAdaptive(b *sparse.Builder, y []float64, sched *core.Scheduler, cfg Config) (*AdaptiveResult, error) {
	dec, err := sched.Choose(b)
	if err != nil {
		return nil, err
	}
	cfg.chosen, cfg.rows = &dec.ChosenCandidate, rowsBeside(dec, b)
	model, stats, err := Train(dec.Matrix, y, cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveResult{Decision: dec, Model: model, Stats: stats}, nil
}

// rowsBeside is where a solver on the decided matrix reads its rows: the
// builder's canonical triplets when the matrix is CSC, which has no row
// index, and the matrix itself (nil) otherwise. The triplets hold the same
// elements in row-major order, and they stay valid while the job runs,
// since nothing adds to b meanwhile.
func rowsBeside(dec *core.Decision, b *sparse.Builder) rowSource {
	if dec.Matrix.Format() != sparse.CSC {
		return nil
	}
	return b.Triplets()
}

// AdaptiveRegressionResult bundles the layout decision with the trained
// ε-SVR model.
type AdaptiveRegressionResult struct {
	Decision *core.Decision
	Model    *RegressionModel
	Stats    Stats
}

// TrainRegressionAdaptive schedules the layout and runs ε-SVR on it — the
// regression counterpart of TrainAdaptive (§II-A: the data structure is
// identical, only yᵢ ∈ ℝ).
func TrainRegressionAdaptive(b *sparse.Builder, y []float64, sched *core.Scheduler, cfg RegressionConfig) (*AdaptiveRegressionResult, error) {
	dec, err := sched.Choose(b)
	if err != nil {
		return nil, err
	}
	cfg.chosen, cfg.rows = &dec.ChosenCandidate, rowsBeside(dec, b)
	model, stats, err := TrainRegression(dec.Matrix, y, cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveRegressionResult{Decision: dec, Model: model, Stats: stats}, nil
}

// TrainFixed trains with a single fixed format for every dataset — the
// non-adaptive behaviour of LIBSVM (CSR) and GPUSVM (DEN) that the paper's
// Table VI compares against.
func TrainFixed(b *sparse.Builder, y []float64, format sparse.Format, cfg Config) (*Model, Stats, error) {
	m, err := b.Build(format)
	if err != nil {
		return nil, Stats{}, err
	}
	return Train(m, y, cfg)
}
