// Package learn implements a trained format-prediction subsystem: a small
// random forest over the nine Table IV influencing parameters that predicts
// which SMSV storage format will measure fastest, replacing hot-path
// measurement with a microsecond model inference.
//
// The paper selects formats at runtime by measuring candidates; related
// work (Stylianou & Weiland 2023, Ashoury et al. 2023) shows the same nine
// parameters are enough to predict the winner directly. This package closes
// that loop as a flywheel: the scheduler's Empirical/Hybrid policies record
// every measured decision into core.History, Train fits a forest on those
// examples (or on fresh measurement sweeps), and core.PolicyPredict answers
// from the forest — falling back to measurement, and recording the outcome,
// exactly when the model is unsure.
//
// Feature vectorization is dataset.Embed — the same pinned log-scaled
// embedding core.History uses — so histories and models describe one metric
// space and stay mutually compatible on disk.
package learn

import (
	"errors"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// ErrNoTrainingData is returned by Train when the example set is empty.
var ErrNoTrainingData = errors.New("learn: empty training set")

// Forest is the scheduler's predictor.
var _ core.FormatPredictor = (*Forest)(nil)

// Example is one labeled training point: the embedded Table IV parameters
// of a dataset and the joint (format, chunk, kernel-variant) candidate that
// measured fastest on it. It is the record a tuning history keeps, so a
// history harvests into training data as it stands.
type Example = core.Recorded[[dataset.EmbedDims]float64, sparse.Candidate]

// FromFeatures embeds raw features into a labeled example.
func FromFeatures(f dataset.Features, label sparse.Candidate) Example {
	return Example{Point: dataset.Embed(f), Candidate: label}
}
