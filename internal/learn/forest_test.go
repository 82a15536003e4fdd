package learn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestTrainEmptyReturnsErrNoTrainingData(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); !errors.Is(err, ErrNoTrainingData) {
		t.Fatalf("Train(nil) err = %v, want ErrNoTrainingData", err)
	}
}

func TestForestLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f, err := Train(axisExamples(300, 4, rng), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	held := axisExamples(100, 4, rng)
	for _, e := range held {
		got, conf, ok := SMSV.Predict(f, e.Point)
		if !ok {
			t.Fatal("trained forest returned ok=false")
		}
		if conf <= 0 || conf > 1 {
			t.Fatalf("confidence %g outside (0,1]", conf)
		}
		if got == e.Candidate {
			correct++
		}
	}
	if correct < 95 {
		t.Fatalf("forest got %d/100 on separable data", correct)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	examples := axisExamples(120, 1, rng)
	f1, err := Train(examples, TrainConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(examples, TrainConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	probe := axisExamples(50, 1, rng)
	for _, e := range probe {
		g1, c1, _ := SMSV.Predict(f1, e.Point)
		g2, c2, _ := SMSV.Predict(f2, e.Point)
		if g1 != g2 || c1 != c2 {
			t.Fatalf("same seed, different predictions: (%v %g) vs (%v %g)", g1, c1, g2, c2)
		}
	}
}

func TestNilAndEmptyForestPredict(t *testing.T) {
	var f *Forest
	if _, _, ok := SMSV.Predict(f, [dataset.EmbedDims]float64{}); ok {
		t.Fatal("nil forest must return ok=false")
	}
	if e := (&Forest{}); e.Trees() != 0 || e.TrainedOn() != 0 {
		t.Fatal("empty forest accessors must be zero")
	}
	if _, _, ok := (&Forest{}).PredictCandidate(dataset.Features{M: 1, N: 1}); ok {
		t.Fatal("empty forest must return ok=false")
	}
}

func TestSingleExampleConstantModel(t *testing.T) {
	f, err := Train([]Example{FromFeatures(dataset.Features{M: 5, N: 5, NNZ: 5}, sparse.BaseCandidate(sparse.COO))}, TrainConfig{Trees: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, conf, ok := f.PredictCandidate(dataset.Features{M: 9000, N: 2, NNZ: 17000, Density: 0.9})
	if !ok || got != sparse.BaseCandidate(sparse.COO) || conf != 1 {
		t.Fatalf("constant model: got %v conf %g ok %v", got, conf, ok)
	}
}

// TestForestImplementsCorePredictor pins the structural contract the
// scheduler relies on.
func TestForestImplementsCorePredictor(t *testing.T) {
	var p core.FormatPredictor = &Forest{}
	if _, _, ok := p.PredictCandidate(dataset.Features{}); ok {
		t.Fatal("empty forest must have no answer")
	}
}

// TestConcurrentPredict runs shared-forest predictions from many
// goroutines; the race detector (make test-race covers this package) is
// the real assertion.
func TestConcurrentPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, err := Train(axisExamples(100, 0, rng), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probes := axisExamples(64, 0, rng)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range probes {
				if _, _, ok := SMSV.Predict(f, e.Point); !ok {
					t.Error("predict returned ok=false")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFromHistoryHarvest(t *testing.T) {
	h := &core.History{}
	f1 := dataset.Features{M: 100, N: 50, NNZ: 500, Ndig: 120, Dnnz: 4, Mdim: 9, Adim: 5, Vdim: 2, Density: 0.1}
	f2 := dataset.Features{M: 2000, N: 2000, NNZ: 21953, Ndig: 12, Dnnz: 1829, Mdim: 12, Adim: 10.98, Vdim: 1.25, Density: 0.006}
	h.RecordCandidate(f1, sparse.BaseCandidate(sparse.ELL))
	h.RecordCandidate(f2, sparse.BaseCandidate(sparse.DIA))
	examples := SMSV.Harvest(h)
	if len(examples) != 2 {
		t.Fatalf("harvested %d examples, want 2", len(examples))
	}
	if examples[0].Point != dataset.Embed(f1) || examples[0].Candidate != sparse.BaseCandidate(sparse.ELL) {
		t.Fatalf("example 0 = %+v", examples[0])
	}
	if examples[1].Point != dataset.Embed(f2) || examples[1].Candidate != sparse.BaseCandidate(sparse.DIA) {
		t.Fatalf("example 1 = %+v", examples[1])
	}
	// A forest trained on the harvest answers the recorded shape classes.
	forest, err := Train(examples, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := forest.PredictCandidate(f2); !ok || got != sparse.BaseCandidate(sparse.DIA) {
		t.Fatalf("predict on recorded class: %v ok=%v", got, ok)
	}
}
