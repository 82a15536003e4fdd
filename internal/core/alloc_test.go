package core

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// TestChooseSteadyStateAllocs is the allocation contract of the pooled
// decision path: after warm-up, an SMSV Choose + Release allocates nothing
// when the answer comes from the predictor or the history, and every other
// path allocates no more than it did before the two schedulers shared one
// ladder. An SMSV hybrid measurement allocates nothing either since the SMSV
// kernels dispatch in closure-free form (14 before: one closure per kernel
// call) — features come off the builder's triplets into pooled workspaces and
// every build is the builder's cached one. A matrix large enough to be
// sampled pays for its two measurement blocks, which are not cached: 6
// objects here, a DEN block (2) and a CSC block (4) for the column
// candidate (a CSR block would be 2: it views the triplets). The pair scheduler ranks
// its cost-model estimates into the pooled decision (AppendPairEstimates), so
// its predict and history paths allocate nothing either (11 each while
// EstimatePairCandidates built and sorted a fresh slice); a hybrid pair
// measurement allocates 12, measured on these inputs under exec.Serial:
// its SpGEMM kernels still close over their operands.
// A per-call closure that escapes or a boxed candidate in the shared ladder
// shows up here as a count above the limit.
func TestChooseSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		// make test-race pairs -short with the race detector, under which
		// sync.Pool drops items at random and pooled paths allocate.
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	ex := exec.Serial()
	m := buildRandom(t, 150, 60, 0.2, 3)
	a, b := pairBuilders(3, 24, 18, 14, 0.2)

	smsv := func(cfg Config) func() error {
		cfg.Exec = ex
		s := New(cfg)
		return func() error {
			d, err := s.Choose(m)
			d.Release()
			return err
		}
	}
	pair := func(cfg SpGEMMConfig) func() error {
		cfg.Exec = ex
		s := NewSpGEMM(cfg)
		return func() error {
			d, err := s.ChooseContext(context.Background(), a, b)
			d.Release()
			return err
		}
	}
	// Above 2·measureBlock stored elements candidates are timed on a row block.
	big := buildRandom(t, 700, 90, 0.6, 4)
	sampledSched := New(Config{Policy: Hybrid, Exec: ex})
	sampledHybrid := func() error {
		d, err := sampledSched.Choose(big)
		d.Release()
		return err
	}
	// A history that has seen the input once answers every later choose.
	hist, pairHist := &History{}, &PairHistory{}
	for _, seed := range []func() error{
		smsv(Config{Policy: Hybrid, History: hist}),
		pair(SpGEMMConfig{Policy: Hybrid, History: pairHist}),
	} {
		if err := seed(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name   string
		choose func() error
		limit  float64
	}{
		{"smsv/predict", smsv(Config{Policy: PolicyPredict, Predictor: &stubPredictor{format: sparse.CSR, conf: 1, ok: true}}), 0},
		{"smsv/history", smsv(Config{Policy: Hybrid, History: hist}), 0},
		{"smsv/hybrid", smsv(Config{Policy: Hybrid}), 0},
		{"smsv/hybrid/sampled", sampledHybrid, 6},
		{"spgemm/predict", pair(SpGEMMConfig{Policy: PolicyPredict, Predictor: stubPairPredictor{spgemm.BaseCandidate, 1, true}}), 0},
		{"spgemm/history", pair(SpGEMMConfig{Policy: Hybrid, History: pairHist}), 0},
		{"spgemm/hybrid", pair(SpGEMMConfig{Policy: Hybrid}), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := testing.AllocsPerRun(20, func() {
				if e := tc.choose(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > tc.limit {
				t.Fatalf("%v allocs per Choose+Release, want at most %v", got, tc.limit)
			}
		})
	}
}
