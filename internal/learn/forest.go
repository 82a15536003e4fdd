package learn

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// forest is a small random forest over embedded feature points:
// bootstrap-sampled CART trees with a random feature subset per split,
// answering by majority vote. It carries the space it was trained or loaded
// in, so everything but the workload's own predict method is written here
// once. Immutable after train/load, so concurrent predictions need no
// locking. Forest and PairForest instantiate it.
type forest[L label] struct {
	sp      *space[L]
	trees   []*tree[L]
	trained int // examples seen at training time, for diagnostics
}

// TrainConfig parameterizes Train. The zero value is usable: 25 trees of
// depth ≤ 8, leaves of ≥ 1 example, 3-feature splits, seed 1.
type TrainConfig struct {
	Trees    int   // forest size; 0 = 25
	MaxDepth int   // per-tree depth cap; 0 = 8
	MinLeaf  int   // minimum examples per leaf; 0 = 1
	Mtry     int   // features sampled per split; 0 = 3 (≈ √EmbedDims)
	Seed     int64 // bagging/split sampling seed; fixed default keeps training reproducible
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Trees <= 0 {
		c.Trees = 25
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.Mtry <= 0 {
		c.Mtry = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// train fits the forest on parallel point rows and labels of sp's space.
func (f *forest[L]) train(sp *space[L], rows [][]float64, labels []L, cfg TrainConfig) error {
	if len(rows) == 0 {
		return ErrNoTrainingData
	}
	cfg = cfg.withDefaults()
	g := grower[L]{
		sp: sp, rows: rows, labels: labels,
		maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, mtry: cfg.Mtry,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	f.sp, f.trained = sp, len(rows)
	idx := make([]int, len(rows))
	for t := 0; t < cfg.Trees; t++ {
		for i := range idx {
			idx[i] = g.rng.Intn(len(rows)) // bootstrap sample
		}
		f.trees = append(f.trees, g.grow(idx))
	}
	return nil
}

// Trees reports the forest size.
func (f *forest[L]) Trees() int { return len(f.trees) }

// TrainedOn reports how many examples the forest was fitted to.
func (f *forest[L]) TrainedOn() int { return f.trained }

// vote runs the trees on an embedded point. Confidence is the winning
// candidate's share of the vote; ok is false for a nil or empty forest.
// Vote ties break toward the lower candidate index for determinism.
func (f *forest[L]) vote(p []float64) (best L, confidence float64, ok bool) {
	if f == nil || len(f.trees) == 0 {
		return best, 0, false
	}
	var buf [maxLabels]int
	votes := buf[:f.sp.labels]
	for _, t := range f.trees {
		votes[t.predict(p).index]++
	}
	i := argmax(votes)
	return f.sp.at(i), float64(votes[i]) / float64(len(f.trees)), true
}

// Forest predicts the SMSV joint candidate from the embedded Table IV
// parameters; it implements core.FormatPredictor. A nil *Forest predicts
// nothing.
type Forest struct{ forest[sparse.Candidate] }

// generic returns the forest behind f, nil for a nil f — vote treats a nil
// forest as empty, so this is the one nil check.
func (f *Forest) generic() *forest[sparse.Candidate] {
	if f == nil {
		return nil
	}
	return &f.forest
}

// modelVersion is the SMSV serialization format version. Bump it whenever
// the embedding (dataset.Embed), the node layout, or the vote semantics
// change, so stale models are rejected at load time instead of silently
// predicting in the wrong feature space. Version 2 widened leaf labels from
// bare format names to joint candidate strings ("CSR/guided/fused");
// version 1 models predict in a different label space and must be
// retrained.
const modelVersion = 2

// SMSV model files predate the kind discriminator, so theirs is empty.
var smsvSpace = space[sparse.Candidate]{
	dims: dataset.EmbedDims, labels: sparse.NumCandidates,
	at: sparse.CandidateAt, parse: sparse.ParseCandidate,
	file: modelFile{version: modelVersion, noun: "model", tree: "tree", retrain: "layoutsched train"},
}

// Train fits a forest on the labeled examples. It returns
// ErrNoTrainingData for an empty set; a single example trains a (trivial)
// constant model.
func Train(examples []Example, cfg TrainConfig) (*Forest, error) {
	rows := make([][]float64, len(examples))
	labels := make([]sparse.Candidate, len(examples))
	for i := range examples {
		rows[i], labels[i] = examples[i].Point[:], examples[i].Candidate
	}
	f := &Forest{}
	if err := f.train(&smsvSpace, rows, labels, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// PredictCandidate embeds the Table IV parameters and votes over the joint
// candidate space; it implements core.FormatPredictor, so the scheduler
// can execute the predicted chunk policy and kernel variant, not just the
// storage format.
func (f *Forest) PredictCandidate(feats dataset.Features) (sparse.Candidate, float64, bool) {
	p := dataset.Embed(feats)
	return f.generic().vote(p[:])
}

// PairExample is one labeled pairwise training point.
type PairExample = core.Recorded[[dataset.PairEmbedDims]float64, spgemm.Candidate]

// FromPairFeatures embeds an (A, B) feature pair into a training example.
func FromPairFeatures(fa, fb dataset.Features, label spgemm.Candidate) PairExample {
	return PairExample{Point: dataset.EmbedPair(fa, fb), Candidate: label}
}

// PairForest predicts the SpGEMM dataflow candidate from the pairwise
// embedding; it implements core.PairPredictor. A nil *PairForest predicts
// nothing.
type PairForest struct{ forest[spgemm.Candidate] }

func (f *PairForest) generic() *forest[spgemm.Candidate] {
	if f == nil {
		return nil
	}
	return &f.forest
}

// pairModelVersion versions the pair-forest serialization independently of
// the SMSV modelVersion: the two models live in different embedded spaces
// and must never be loaded into each other. The kind discriminator makes a
// cross-load a clean error even at matching version numbers — a pair model
// handed to Load, or an SMSV model handed to LoadPair, is rejected by
// content, not by filename.
const pairModelVersion = 1

var pairSpace = space[spgemm.Candidate]{
	dims: dataset.PairEmbedDims, labels: spgemm.NumCandidates,
	at: spgemm.CandidateAt, parse: spgemm.ParseCandidate,
	file: modelFile{version: pairModelVersion, kind: kindPair,
		noun: "pair model", tree: "pair tree", retrain: "layoutsched train-spgemm"},
}

// TrainPair fits a pair forest; TrainConfig semantics match Train, with
// the same defaults (Mtry 3 ≈ √PairEmbedDims is a reasonable subset here
// too).
func TrainPair(examples []PairExample, cfg TrainConfig) (*PairForest, error) {
	rows := make([][]float64, len(examples))
	labels := make([]spgemm.Candidate, len(examples))
	for i := range examples {
		rows[i], labels[i] = examples[i].Point[:], examples[i].Candidate
	}
	f := &PairForest{}
	if err := f.train(&pairSpace, rows, labels, cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// PredictPair embeds the feature pair and votes; this is the
// core.PairPredictor contract.
func (f *PairForest) PredictPair(fa, fb dataset.Features) (spgemm.Candidate, float64, bool) {
	p := dataset.EmbedPair(fa, fb)
	return f.generic().vote(p[:])
}
