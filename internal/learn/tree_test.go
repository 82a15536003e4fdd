package learn

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

// axisExamples builds a two-class set separable on a single embedded axis:
// dimension `dim` below 0 → CSR, above → DIA.
func axisExamples(n, dim int, rng *rand.Rand) []Example {
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		var e Example
		for d := range e.Point {
			e.Point[d] = rng.NormFloat64()
		}
		if e.Point[dim] <= 0 {
			e.Point[dim] -= 0.5 // margin so midpoint thresholds generalize
			e.Candidate = sparse.BaseCandidate(sparse.CSR)
		} else {
			e.Point[dim] += 0.5
			e.Candidate = sparse.BaseCandidate(sparse.DIA)
		}
		out = append(out, e)
	}
	return out
}

// smsvGrower is the tree builder over SMSV examples, as Train sets it up.
func smsvGrower(examples []Example, maxDepth, minLeaf int, rng *rand.Rand) *grower[sparse.Candidate] {
	g := &grower[sparse.Candidate]{sp: &smsvSpace, maxDepth: maxDepth, minLeaf: minLeaf, rng: rng}
	for i := range examples {
		g.rows = append(g.rows, examples[i].Point[:])
		g.labels = append(g.labels, examples[i].Candidate)
	}
	return g
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	examples := axisExamples(200, 2, rng)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	tr := smsvGrower(examples, 4, 1, rng).grow(idx)
	for _, e := range axisExamples(100, 2, rng) {
		leaf := tr.predict(e.Point[:])
		got, purity := leaf.label, leaf.purity
		if got != e.Candidate {
			t.Fatalf("tree predicted %v for a point with label %v", got, e.Candidate)
		}
		if purity != 1 {
			t.Fatalf("separable data should give pure leaves, got purity %g", purity)
		}
	}
}

func TestTreeDepthCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	examples := axisExamples(64, 0, rng)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	tr := smsvGrower(examples, 0, 1, rng).grow(idx)
	if len(tr.nodes) != 1 || tr.nodes[0].feat != -1 {
		t.Fatalf("maxDepth 0 must give a single leaf, got %d nodes", len(tr.nodes))
	}
	if purity := tr.predict(examples[0].Point[:]).purity; purity <= 0 || purity > 1 {
		t.Fatalf("leaf purity %g outside (0,1]", purity)
	}
}

func TestMajorityTieBreaksLow(t *testing.T) {
	examples := []Example{
		{Candidate: sparse.BaseCandidate(sparse.DIA)}, {Candidate: sparse.BaseCandidate(sparse.DIA)},
		{Candidate: sparse.BaseCandidate(sparse.CSR)}, {Candidate: sparse.BaseCandidate(sparse.CSR)},
	}
	label, frac, pure := smsvGrower(examples, 0, 0, nil).majority([]int{0, 1, 2, 3})
	if label != sparse.BaseCandidate(sparse.CSR) {
		t.Fatalf("tie must break toward the lower candidate index, got %v", label)
	}
	if frac != 0.5 || pure {
		t.Fatalf("frac=%g pure=%v, want 0.5 false", frac, pure)
	}
}

func TestBestSplitConstantFeatures(t *testing.T) {
	// All points identical: no split can exist, the builder must emit a
	// leaf instead of recursing forever.
	examples := make([]Example, 10)
	for i := range examples {
		examples[i].Candidate = sparse.BaseCandidate(sparse.Format(i % 2))
	}
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	if _, _, ok := smsvGrower(examples, 0, 0, rng).bestSplit(idx); ok {
		t.Fatal("bestSplit found a split in constant data")
	}
	tr := smsvGrower(examples, 8, 1, rng).grow(idx)
	if len(tr.nodes) != 1 {
		t.Fatalf("constant data must give a single leaf, got %d nodes", len(tr.nodes))
	}
}

func TestGrowRespectsMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	examples := axisExamples(40, 1, rng)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	tr := smsvGrower(examples, 10, 40, rng).grow(idx)
	if len(tr.nodes) != 1 {
		t.Fatalf("minLeaf == len(examples) must stop at the root, got %d nodes", len(tr.nodes))
	}
}

func TestFromFeaturesUsesSharedEmbedding(t *testing.T) {
	f := dataset.Features{M: 100, N: 10, NNZ: 500, Ndig: 109, Dnnz: 4.587, Mdim: 9, Adim: 5, Vdim: 2.5, Density: 0.5}
	e := FromFeatures(f, sparse.BaseCandidate(sparse.ELL))
	if e.Point != dataset.Embed(f) {
		t.Fatal("FromFeatures must vectorize with dataset.Embed")
	}
	if e.Candidate != sparse.BaseCandidate(sparse.ELL) {
		t.Fatalf("label %v", e.Candidate)
	}
}
