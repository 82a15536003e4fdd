package learn

import (
	"math/rand"
	"sort"

	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// label is a candidate type usable as a class: comparable, with a frozen
// dense Index (persisted nowhere, but it orders vote ties) and the String
// form model files persist.
type label interface {
	Candidate
	Index() int
}

// space describes one workload's point and label space to the generic
// tree, forest and model codec: everything that differs between the SMSV
// format predictor and the SpGEMM pair predictor.
type space[L label] struct {
	dims   int         // embedded point width
	labels int         // size of the dense Index space
	at     func(int) L // inverse of L.Index
	parse  func(string) (L, error)
	file   modelFile
}

// maxLabels sizes the class-count arrays for every workload at once, so
// the Gini inner loop and the forest vote stay allocation-free; each
// workload only walks its own first space.labels slots. The index spaces
// are sparse (ineligible combinations never occur as labels) but small
// enough that the dead slots are free.
const maxLabels = max(sparse.NumCandidates, spgemm.NumCandidates)

// node is one decision-tree node in flattened array form. The builder
// appends a parent before its children, so child indices are always larger
// than the parent's — load relies on that to reject cyclic files.
type node[L label] struct {
	feat        int // embedded-feature index; -1 marks a leaf
	thresh      float64
	left, right int     // child indices, internal nodes only
	label       L       // leaf answer
	index       int     // label.Index(), kept so a vote makes no call through L
	purity      float64 // training fraction of label at this leaf
}

// tree is a single CART classifier over embedded feature points.
type tree[L label] struct {
	nodes []node[L]
}

// predict walks to the leaf that answers for p.
func (t *tree[L]) predict(p []float64) *node[L] {
	i := 0
	for t.nodes[i].feat >= 0 {
		if p[t.nodes[i].feat] <= t.nodes[i].thresh {
			i = t.nodes[i].left
		} else {
			i = t.nodes[i].right
		}
	}
	return &t.nodes[i]
}

// grower bundles the recursive builder's inputs: the training set as
// parallel point rows and labels, and the growth parameters.
type grower[L label] struct {
	sp       *space[L]
	rows     [][]float64
	labels   []L
	maxDepth int
	minLeaf  int
	mtry     int // features sampled per split; 0 = all
	rng      *rand.Rand
}

// grow fits one tree on the examples selected by idx (with repeats, for
// bootstrap samples).
func (g *grower[L]) grow(idx []int) *tree[L] {
	t := &tree[L]{}
	g.build(t, idx, 0)
	return t
}

// build appends the subtree over idx and returns its root index.
func (g *grower[L]) build(t *tree[L], idx []int, depth int) int {
	label, purity, pure := g.majority(idx)
	me := len(t.nodes)
	t.nodes = append(t.nodes, node[L]{feat: -1, label: label, index: label.Index(), purity: purity})
	if pure || depth >= g.maxDepth || len(idx) < 2*g.minLeaf {
		return me
	}
	feat, thresh, ok := g.bestSplit(idx)
	if !ok {
		return me
	}
	var left, right []int
	for _, i := range idx {
		if g.rows[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.minLeaf || len(right) < g.minLeaf {
		return me
	}
	l := g.build(t, left, depth+1)
	r := g.build(t, right, depth+1)
	t.nodes[me] = node[L]{feat: feat, thresh: thresh, left: l, right: r}
	return me
}

// argmax returns the index of the largest count; ties break toward the
// lower candidate index for determinism.
func argmax(counts []int) int {
	best := 0
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return best
}

// majority returns the most frequent label in idx, its fraction, and
// whether the set is single-class.
func (g *grower[L]) majority(idx []int) (L, float64, bool) {
	var buf [maxLabels]int
	counts := buf[:g.sp.labels]
	for _, i := range idx {
		counts[g.labels[i].Index()]++
	}
	best := argmax(counts)
	frac := float64(counts[best]) / float64(len(idx))
	return g.sp.at(best), frac, counts[best] == len(idx)
}

// bestSplit searches an mtry-sized random feature subset for the
// (feature, threshold) pair with the largest Gini impurity decrease,
// considering midpoints between distinct consecutive sorted values.
func (g *grower[L]) bestSplit(idx []int) (int, float64, bool) {
	feats := g.rng.Perm(g.sp.dims)
	if g.mtry > 0 && g.mtry < len(feats) {
		feats = feats[:g.mtry]
	}
	var totalBuf, leftBuf, rightBuf [maxLabels]int
	labels := g.sp.labels
	total, left, right := totalBuf[:labels], leftBuf[:labels], rightBuf[:labels]
	for _, i := range idx {
		total[g.labels[i].Index()]++
	}
	n := len(idx)
	parent := gini(total, n)

	type pair struct {
		v     float64
		label int // candidate index
	}
	pairs := make([]pair, n)
	bestGain := 1e-12 // require a strictly positive decrease
	bestFeat, bestThresh, found := -1, 0.0, false
	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = pair{g.rows[i][f], g.labels[i].Index()}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		clear(left)
		for k := 0; k < n-1; k++ {
			left[pairs[k].label]++
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			for c := range right {
				right[c] = total[c] - left[c]
			}
			nl, nr := k+1, n-k-1
			gain := parent - (float64(nl)*gini(left, nl)+float64(nr)*gini(right, nr))/float64(n)
			if gain > bestGain {
				bestGain, bestFeat, found = gain, f, true
				bestThresh = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return bestFeat, bestThresh, found
}

// gini computes the Gini impurity of a class-count vector over n samples.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}
