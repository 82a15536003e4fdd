package learn

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

func TestSyntheticCorpusShapesAndDeterminism(t *testing.T) {
	c1 := syntheticCorpus(15, 3)
	if len(c1) != 15 {
		t.Fatalf("corpus size %d, want 15", len(c1))
	}
	c2 := syntheticCorpus(15, 3)
	for i := range c1 {
		m1 := c1[i].MustBuild(sparse.CSR)
		m2 := c2[i].MustBuild(sparse.CSR)
		if dataset.Extract(m1) != dataset.Extract(m2) {
			t.Fatalf("corpus not deterministic at %d", i)
		}
		if r, c := m1.Dims(); r == 0 || c == 0 || m1.NNZ() == 0 {
			t.Fatalf("degenerate corpus matrix %d: %dx%d nnz %d", i, r, c, m1.NNZ())
		}
	}
	// Different seeds must give a different (held-out) corpus.
	c3 := syntheticCorpus(15, 4)
	same := 0
	for i := range c1 {
		if dataset.Extract(c1[i].MustBuild(sparse.CSR)) == dataset.Extract(c3[i].MustBuild(sparse.CSR)) {
			same++
		}
	}
	if same == len(c1) {
		t.Fatal("seed 3 and seed 4 corpora are identical")
	}
}

func TestMeasureLabelsWithMeasuredBest(t *testing.T) {
	b, err := dataset.ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	mat := b.MustGenerate(1)
	l, err := Measure(context.Background(), mat, exec.Serial(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Times) == 0 {
		t.Fatal("Measure kept no timing evidence")
	}
	best, ok := l.Times[l.Candidate]
	if !ok {
		t.Fatalf("label %v has no measured time", l.Candidate)
	}
	for f, d := range l.Times {
		if d < best {
			t.Fatalf("label %v (%v) is not the measured best: %v took %v", l.Candidate, best, f, d)
		}
	}
	dec, err := core.New(core.Config{Policy: core.RuleBased}).Choose(mat)
	if err != nil {
		t.Fatal(err)
	}
	if l.Point != dataset.Embed(dec.Features) {
		t.Fatal("Labeled.Point must be the shared embedding of its features")
	}
}

func TestEvaluateScoring(t *testing.T) {
	// A constant CSR model scored against one exact hit, one cheap miss
	// (within tolerance), and one expensive miss.
	csr := sparse.BaseCandidate(sparse.CSR)
	ell := sparse.BaseCandidate(sparse.ELL)
	dia := sparse.BaseCandidate(sparse.DIA)
	f, err := Train([]Example{{Candidate: csr}}, TrainConfig{Trees: 1})
	if err != nil {
		t.Fatal(err)
	}
	items := []Labeled{
		{Recorded: Example{Candidate: csr}, Times: map[sparse.Candidate]time.Duration{csr: 100}},
		{Recorded: Example{Candidate: ell}, Times: map[sparse.Candidate]time.Duration{ell: 100, csr: 110}},
		{Recorded: Example{Candidate: dia}, Times: map[sparse.Candidate]time.Duration{dia: 100, csr: 300}},
	}
	res := SMSV.Evaluate(f, items, 1.25, 0.5)
	if res.N != 3 || res.Exact != 1 || res.Within != 2 {
		t.Fatalf("got %+v, want N=3 Exact=1 Within=2", res)
	}
	want := (1.0 + 1.1 + 3.0) / 3
	if diff := res.MeanSlowdown - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean slowdown %g, want %g", res.MeanSlowdown, want)
	}
	if res.String() == "" {
		t.Fatal("empty report")
	}
	// A predicted candidate with no measured time counts against Within.
	den := sparse.BaseCandidate(sparse.DEN)
	items = append(items, Labeled{Recorded: Example{Candidate: den}, Times: map[sparse.Candidate]time.Duration{den: 100}})
	res = SMSV.Evaluate(f, items, 1.25, 0.5)
	if res.N != 4 || res.Within != 2 {
		t.Fatalf("unbuildable prediction must not count as within: %+v", res)
	}
	if empty := SMSV.Evaluate(f, nil, 0, 0); empty.N != 0 || empty.String() == "" {
		t.Fatalf("empty eval: %+v", empty)
	}
}

// TestPredictorQuality is the PR's acceptance experiment: train on one
// synthetic corpus, evaluate on a disjoint held-out corpus of 40 datasets,
// and require the predicted format to measure within 1.25× of the measured
// best on at least 80% of them.
func TestPredictorQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("measure-labels ~100 datasets")
	}
	ctx := context.Background()
	ex := exec.Serial()
	train, err := SMSV.MeasureAll(ctx, syntheticCorpus(60, 101), ex, 1)
	if err != nil {
		t.Fatal(err)
	}
	held, err := SMSV.MeasureAll(ctx, syntheticCorpus(40, 202), ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Train(Examples(train), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := SMSV.Evaluate(f, held, 1.25, 0.6)
	t.Log(res)
	if res.N < 40 {
		t.Fatalf("held-out set has %d scored datasets, want >= 40", res.N)
	}
	if frac := float64(res.Within) / float64(res.N); frac < 0.8 {
		t.Fatalf("predictor within 1.25x of oracle on only %.0f%% of held-out datasets (%s)", 100*frac, res)
	}
}
