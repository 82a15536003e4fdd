package learn

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// Measured is a measurement-labeled corpus item: its training example plus
// the full per-candidate timing evidence, kept so Evaluate can score a
// prediction's slowdown against the measured oracle.
type Measured[P any, L comparable] struct {
	core.Recorded[P, L]
	Times map[L]time.Duration
}

// Labeled is a measurement-labeled dataset.
type Labeled = Measured[[dataset.EmbedDims]float64, sparse.Candidate]

// Measure labels one dataset by empirical measurement: every eligible joint
// candidate is built and timed (the scheduler's Empirical policy) and the
// fastest becomes the training label. This is the expensive side of the
// flywheel — each call costs a full measurement sweep.
func Measure(ctx context.Context, b *sparse.Builder, ex *exec.Exec, seed int64) (Labeled, error) {
	dec, err := core.New(core.Config{Policy: core.Empirical, Exec: ex, Seed: seed}).ChooseContext(ctx, b)
	return labelFrom(dec, err, func(d *core.Decision) Labeled {
		return Labeled{Recorded: FromFeatures(d.Features, d.ChosenCandidate), Times: maps.Clone(d.Measured)}
	})
}

// labelFrom turns one empirical scheduler run into a labeled item. Decisions
// are pooled, so build copies what must outlive the release.
func labelFrom[D interface{ Release() }, L any](dec D, err error, build func(D) L) (L, error) {
	if err != nil {
		var none L
		return none, err
	}
	l := build(dec)
	dec.Release()
	return l, nil
}

// Examples projects measurement-labeled items down to training examples.
func Examples[P any, L comparable](items []Measured[P, L]) []core.Recorded[P, L] {
	out := make([]core.Recorded[P, L], len(items))
	for i, it := range items {
		out[i] = it.Recorded
	}
	return out
}

// syntheticCorpus generates n structurally diverse matrices by cycling the
// dataset generator families — banded (DIA territory), one-long-row skew
// (ELL-hostile), high row-length variance (CSR vs COO), dense blocks (DEN),
// and uniform rows (ELL) — with seed-derived parameters. Different seeds
// give disjoint corpora, so train and eval splits are held out from each
// other by construction.
func syntheticCorpus(n int, seed int64) []*sparse.Builder {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*sparse.Builder, 0, n)
	for i := 0; len(out) < n; i++ {
		var b *sparse.Builder
		var err error
		switch i % 5 {
		case 0: // banded, few diagonals
			size := 256 + rng.Intn(512)
			ndig := 3 + rng.Intn(14)
			b, err = dataset.Banded(size, size, ndig, int64(size*(2+rng.Intn(6))), rng)
		case 1: // a block of mdim-length rows above a tail of singletons
			side := 256 + rng.Intn(512)
			mdim := side / (2 << rng.Intn(4))
			b, err = dataset.SkewRows(side, side, int64(3*side), mdim, rng)
		case 2: // two-point row plan with varying variance
			m := 128 + rng.Intn(256)
			cols := 512 + rng.Intn(1536)
			adim := 8 + 24*rng.Float64()
			vdim := []float64{0, 4, 64, 1024, 16384}[rng.Intn(5)]
			b, err = dataset.VdimFamily(m, cols, adim, vdim, rng)
		case 3: // small dense block
			b = dataset.DenseMatrix(32+rng.Intn(96), 64+rng.Intn(192), rng)
		case 4: // uniform rows
			m := 256 + rng.Intn(512)
			cols := 128 + rng.Intn(256)
			lens := make([]int, m)
			l := 4 + rng.Intn(28)
			for r := range lens {
				lens[r] = l
			}
			b = dataset.FromRowLengths(lens, cols, rng)
		}
		if err != nil || b == nil {
			// A parameter draw outside a generator's feasible region is
			// redrawn, not fatal; the loop keeps going until n builders.
			continue
		}
		out = append(out, b)
	}
	return out
}

// EvalResult summarizes predictor quality over a labeled evaluation set, in
// the spirit of the paper's Table VI: how often the model picks the
// measured-best format, and how much time a misprediction actually costs.
type EvalResult struct {
	N         int     // scored datasets
	Exact     int     // predictions matching the measured-best candidate
	Within    int     // predictions whose measured time ≤ Tolerance × best
	Tolerance float64 // the slowdown tolerance used for Within
	// MeanSlowdown averages predicted-candidate time over best-candidate
	// time; 1.0 is the oracle. Predictions of unbuildable candidates are
	// excluded here (they count against Within but have no measured time).
	MeanSlowdown   float64
	MeanConfidence float64
	LowConfidence  int // predictions below the given confidence threshold
}

// Evaluate scores the forest against measurement-labeled items. tolerance
// ≤ 0 means 1.25; minConfidence only affects the LowConfidence count (every
// prediction is scored — evaluation has the oracle, so there is nothing to
// fall back to).
func (w *Workload[P, L, F, H, In]) Evaluate(f F, items []Measured[P, L], tolerance, minConfidence float64) EvalResult {
	if tolerance <= 0 {
		tolerance = 1.25
	}
	res := EvalResult{Tolerance: tolerance}
	var slowdowns int
	for _, it := range items {
		label, times := it.Candidate, it.Times
		pred, conf, ok := w.Predict(f, it.Point)
		if !ok {
			continue
		}
		res.N++
		res.MeanConfidence += conf
		if conf < minConfidence {
			res.LowConfidence++
		}
		if pred == label {
			res.Exact++
		}
		best, okBest := times[label]
		got, okGot := times[pred]
		if !okBest || best <= 0 || !okGot {
			// The model predicted a candidate the dataset could not even
			// build (e.g. DIA over its cap): an unambiguous miss.
			continue
		}
		s := float64(got) / float64(best)
		res.MeanSlowdown += s
		slowdowns++
		if s <= tolerance {
			res.Within++
		}
	}
	if res.N > 0 {
		res.MeanConfidence /= float64(res.N)
	}
	if slowdowns > 0 {
		res.MeanSlowdown /= float64(slowdowns)
	}
	return res
}

// String renders the result as one report line.
func (r EvalResult) String() string {
	if r.N == 0 {
		return "eval: no scored datasets"
	}
	return fmt.Sprintf(
		"eval: %d datasets, exact %d (%.0f%%), within %.2fx of oracle %d (%.0f%%), mean slowdown %.3fx, mean confidence %.2f, low-confidence %d",
		r.N, r.Exact, 100*float64(r.Exact)/float64(r.N),
		r.Tolerance, r.Within, 100*float64(r.Within)/float64(r.N),
		r.MeanSlowdown, r.MeanConfidence, r.LowConfidence)
}
