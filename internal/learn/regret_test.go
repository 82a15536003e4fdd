package learn

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// modelLabeled builds a measurement-free labeled corpus: each synthetic
// matrix's per-candidate "times" are the scheduler's joint cost model
// evaluated on its real extracted features. The oracle, the labels, and
// both regret numbers are then fully deterministic — no timer noise — while
// the feature→label structure is exactly what the flywheel trains on.
func modelLabeled(t *testing.T, n int, seed int64) []Labeled {
	t.Helper()
	out := make([]Labeled, 0, n)
	for _, b := range syntheticCorpus(n, seed) {
		m, err := b.Build(sparse.CSR)
		if err != nil {
			t.Fatal(err)
		}
		feats := dataset.Extract(m)
		times := make(map[sparse.Candidate]time.Duration)
		label := sparse.Candidate{}
		best := time.Duration(-1)
		for _, e := range core.AppendCandidateEstimates(nil, core.EstimateCosts(feats), 0, true) {
			// Scale before truncating so distinct costs stay distinct.
			d := time.Duration(e.Cost * 64)
			times[e.Candidate] = d
			if best < 0 || d < best || (d == best && e.Candidate.Index() < label.Index()) {
				label, best = e.Candidate, d
			}
		}
		out = append(out, Labeled{Recorded: FromFeatures(feats, label), Times: times})
	}
	return out
}

// TestJointPredictorRegretNotWorseThanFormatOnly is the PR's model-quality
// acceptance gate: on the same held-out set, a forest trained over the
// joint candidate space must have mean slowdown (regret vs the per-item
// oracle) no worse than a forest confined to the pre-joint format-only
// label space. The joint space strictly contains the format-only one
// (fused kernels dominate the pair unit), so widening the labels must not
// cost accuracy-weighted execution time.
func TestJointPredictorRegretNotWorseThanFormatOnly(t *testing.T) {
	train := modelLabeled(t, 60, 11)
	held := modelLabeled(t, 40, 22)

	joint, err := Train(Examples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	formatOnly, err := Train(formatOnlyExamples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	evJoint := SMSV.Evaluate(joint, held, 1.25, 0.6)
	evFmt := SMSV.Evaluate(formatOnly, held, 1.25, 0.6)
	t.Logf("joint:       %s", evJoint)
	t.Logf("format-only: %s", evFmt)

	if evJoint.N != len(held) || evFmt.N != len(held) {
		t.Fatalf("scored %d/%d items, want %d each", evJoint.N, evFmt.N, len(held))
	}
	if evJoint.MeanSlowdown > evFmt.MeanSlowdown+1e-9 {
		t.Fatalf("joint regret %.4fx worse than format-only %.4fx",
			evJoint.MeanSlowdown, evFmt.MeanSlowdown)
	}
	// The format-only baseline can never execute a fused pair, so on this
	// cost model its regret is bounded away from 1; the joint predictor
	// must actually exploit the wider space, not merely tie.
	if evJoint.MeanSlowdown >= evFmt.MeanSlowdown {
		t.Fatalf("joint predictor did not improve on format-only: %.4fx vs %.4fx",
			evJoint.MeanSlowdown, evFmt.MeanSlowdown)
	}
}

// formatOnlyExamples projects labeled data onto the pre-joint label space:
// each item is relabeled with the base candidate (static chunks, base
// kernel) of the format whose base measurement was fastest — exactly what a
// format-only scheduler could observe and execute. A forest trained on this
// projection is the baseline of the joint-vs-format-only regret gate.
func formatOnlyExamples(items []Labeled) []Example {
	out := make([]Example, len(items))
	for i, it := range items {
		best := it.Candidate // fall back to the joint label's format if no base time exists
		bestT := time.Duration(-1)
		for c, t := range it.Times {
			if c != sparse.BaseCandidate(c.Format) {
				continue
			}
			if bestT < 0 || t < bestT || (t == bestT && c.Index() < best.Index()) {
				best, bestT = c, t
			}
		}
		out[i] = Example{Point: it.Point, Candidate: sparse.BaseCandidate(best.Format)}
	}
	return out
}

// TestFormatOnlyExamplesProjection pins the projection used for the
// baseline: the label is the base candidate of the fastest *base*
// measurement, even when a non-base candidate is globally fastest.
func TestFormatOnlyExamplesProjection(t *testing.T) {
	csrFused := sparse.Candidate{Format: sparse.CSR, Variant: sparse.VariantFused}
	items := []Labeled{{
		Recorded: Example{Candidate: csrFused},
		Times: map[sparse.Candidate]time.Duration{
			csrFused:                         55,
			sparse.BaseCandidate(sparse.CSR): 100,
			sparse.BaseCandidate(sparse.ELL): 90,
		},
	}}
	got := formatOnlyExamples(items)
	if len(got) != 1 || got[0].Candidate != sparse.BaseCandidate(sparse.ELL) {
		t.Fatalf("projected label %v, want ELL base", got[0].Candidate)
	}
}
