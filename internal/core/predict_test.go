package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// stubPredictor is a canned FormatPredictor for scheduler tests: it
// answers its format's base candidate.
type stubPredictor struct {
	format sparse.Format
	conf   float64
	ok     bool
	calls  int
}

func (s *stubPredictor) PredictCandidate(dataset.Features) (sparse.Candidate, float64, bool) {
	s.calls++
	return sparse.BaseCandidate(s.format), s.conf, s.ok
}

func predictBuilder(t *testing.T) *sparse.Builder {
	t.Helper()
	d, err := dataset.ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	return d.MustGenerate(1)
}

func TestPredictPolicyHighConfidenceSkipsMeasurement(t *testing.T) {
	p := &stubPredictor{format: sparse.CSR, conf: 0.9, ok: true}
	sched := New(Config{Policy: PolicyPredict, Predictor: p, Exec: exec.Serial(), Seed: 1})
	dec, err := sched.Choose(predictBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung != RungPredictor || dec.Chosen != sparse.CSR || dec.Confidence != 0.9 {
		t.Fatalf("decision %+v, want predicted CSR at 0.9", dec)
	}
	if len(dec.Measured) != 0 {
		t.Fatalf("confident prediction must not measure, got %v", dec.Measured)
	}
	if dec.Matrix == nil || dec.Matrix.Format() != sparse.CSR {
		t.Fatal("predicted decision must materialize the chosen format")
	}
	if p.calls != 1 {
		t.Fatalf("predictor consulted %d times", p.calls)
	}
}

func TestPredictPolicyLowConfidenceFallsBackToMeasurement(t *testing.T) {
	hist := &History{}
	p := &stubPredictor{format: sparse.DEN, conf: 0.2, ok: true}
	sched := New(Config{Policy: PolicyPredict, Predictor: p, Exec: exec.Serial(), Seed: 1, History: hist})
	dec, err := sched.Choose(predictBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung == RungPredictor {
		t.Fatal("low-confidence prediction must not be trusted")
	}
	if dec.Confidence != 0.2 {
		t.Fatalf("fallback decision must keep the predictor confidence, got %g", dec.Confidence)
	}
	if len(dec.Measured) == 0 {
		t.Fatal("fallback must measure candidates")
	}
	// The flywheel: the measured outcome is recorded for retraining.
	if hist.Len() != 1 {
		t.Fatalf("fallback must record into history, len %d", hist.Len())
	}
}

func TestPredictPolicyNoAnswerFallsBack(t *testing.T) {
	p := &stubPredictor{ok: false, conf: 1} // e.g. an empty forest
	sched := New(Config{Policy: PolicyPredict, Predictor: p, Exec: exec.Serial(), Seed: 1})
	dec, err := sched.Choose(predictBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung == RungPredictor || len(dec.Measured) == 0 {
		t.Fatalf("ok=false must force measurement, got %+v", dec)
	}
}

func TestPredictPolicyUnbuildablePredictionFallsBack(t *testing.T) {
	// 8500 occupied diagonals on a 16384-wide matrix pads past the DIA
	// element cap, so a confident DIA prediction cannot materialize and
	// must fall back to measurement.
	b, err := dataset.Banded(16384, 16384, 8500, 8500, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(sparse.DIA); err == nil {
		t.Fatal("test premise broken: DIA built under the cap")
	}
	p := &stubPredictor{format: sparse.DIA, conf: 0.99, ok: true}
	sched := New(Config{Policy: PolicyPredict, Predictor: p, Exec: exec.Serial(), Seed: 1})
	dec, err := sched.Choose(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung == RungPredictor {
		t.Fatal("unbuildable prediction must not be trusted")
	}
	if len(dec.Measured) == 0 || dec.Chosen == sparse.DIA {
		t.Fatalf("fallback should measure and choose a buildable format, got %+v", dec)
	}
}

func TestPredictPolicyWithoutPredictorErrors(t *testing.T) {
	sched := New(Config{Policy: PolicyPredict, Exec: exec.Serial()})
	if _, err := sched.Choose(predictBuilder(t)); !errors.Is(err, ErrNoPredictor) {
		t.Fatalf("err = %v, want ErrNoPredictor", err)
	}
}

func TestPredictPolicyMinConfidenceDefault(t *testing.T) {
	// Exactly at the default threshold the prediction is trusted; just
	// below it falls back.
	at := &stubPredictor{format: sparse.CSR, conf: DefaultMinConfidence, ok: true}
	sched := New(Config{Policy: PolicyPredict, Predictor: at, Exec: exec.Serial(), Seed: 1})
	dec, err := sched.Choose(predictBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung != RungPredictor {
		t.Fatalf("confidence == threshold must be trusted")
	}
	below := &stubPredictor{format: sparse.CSR, conf: DefaultMinConfidence - 0.01, ok: true}
	sched = New(Config{Policy: PolicyPredict, Predictor: below, Exec: exec.Serial(), Seed: 1})
	dec, err = sched.Choose(predictBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung == RungPredictor {
		t.Fatal("confidence below threshold must fall back")
	}
}

func TestPredictPolicyHistoryShortCircuitsPredictor(t *testing.T) {
	// A near-miss history hit is even cheaper than an inference; it wins.
	hist := &History{}
	b := predictBuilder(t)
	feats := dataset.Extract(b.MustBuild(sparse.CSR))
	hist.RecordCandidate(feats, sparse.BaseCandidate(sparse.COO))
	p := &stubPredictor{format: sparse.CSR, conf: 1, ok: true}
	sched := New(Config{Policy: PolicyPredict, Predictor: p, Exec: exec.Serial(), Seed: 1, History: hist})
	dec, err := sched.Choose(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung != RungHistory || dec.Chosen != sparse.COO {
		t.Fatalf("history should win over the predictor, got %+v", dec)
	}
	if p.calls != 0 {
		t.Fatal("predictor must not be consulted on a history hit")
	}
}
