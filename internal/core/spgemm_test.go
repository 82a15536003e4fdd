package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

func pairBuilders(seed int64, m, k, n int, density float64) (*sparse.Builder, *sparse.Builder) {
	rng := rand.New(rand.NewSource(seed))
	gen := func(r, c int) *sparse.Builder {
		b := sparse.NewBuilder(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < density {
					b.Add(i, j, rng.NormFloat64())
				}
			}
		}
		if b.Len() == 0 {
			b.Add(0, 0, 1)
		}
		return b
	}
	return gen(m, k), gen(k, n)
}

func TestSpGEMMChoosePolicies(t *testing.T) {
	for _, policy := range []Policy{RuleBased, Empirical, Hybrid} {
		t.Run(policy.String(), func(t *testing.T) {
			s := NewSpGEMM(SpGEMMConfig{Policy: policy, Repeats: 1})
			a, b := pairBuilders(1, 20, 16, 12, 0.2)
			d, err := s.ChooseContext(context.Background(), a, b)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Release()
			if !spgemm.Supported(d.Chosen) {
				t.Fatalf("chose unsupported candidate %s", d.Chosen)
			}
			if len(d.Estimates) != 5 {
				t.Fatalf("%d estimates, want 5 (one per supported candidate)", len(d.Estimates))
			}
			switch policy {
			case RuleBased:
				if len(d.Measured) != 0 {
					t.Fatal("rule-based decision should not measure")
				}
			case Empirical:
				if len(d.Measured) != 5 {
					t.Fatalf("empirical measured %d candidates, want all 5", len(d.Measured))
				}
				if d.OutputNNZ <= 0 {
					t.Fatal("measured decision should report the product's entry count")
				}
			case Hybrid:
				if len(d.Measured) == 0 || len(d.Measured) > 2 {
					t.Fatalf("hybrid measured %d candidates, want 1..TopK", len(d.Measured))
				}
			}
			if d.EstimatedNNZ <= 0 {
				t.Fatal("estimated output nnz should be positive for a nonempty pair")
			}
		})
	}
}

func TestSpGEMMChooseRejectsDegenerate(t *testing.T) {
	s := NewSpGEMM(SpGEMMConfig{Policy: Hybrid})
	a, b := pairBuilders(2, 6, 5, 4, 0.3)
	bad := sparse.NewBuilder(7, 4) // inner dim 5 != 7
	bad.Add(0, 0, 1)
	if _, err := s.ChooseContext(context.Background(), a, bad); err == nil || !strings.Contains(err.Error(), "dimension mismatch") {
		t.Fatalf("dimension mismatch error = %v", err)
	}
	_ = b
}

func TestSpGEMMHistoryReuse(t *testing.T) {
	h := &PairHistory{}
	s := NewSpGEMM(SpGEMMConfig{Policy: Hybrid, Repeats: 1, History: h})
	a1, b1 := pairBuilders(3, 24, 18, 14, 0.2)
	d1, err := s.ChooseContext(context.Background(), a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Rung == RungHistory {
		t.Fatal("first decision cannot come from history")
	}
	first := d1.Chosen
	d1.Release()
	if h.Len() != 1 {
		t.Fatalf("history has %d entries, want 1", h.Len())
	}
	// Same generator, different seed: a clone of the shape class.
	a2, b2 := pairBuilders(4, 24, 18, 14, 0.2)
	d2, err := s.ChooseContext(context.Background(), a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Release()
	if d2.Rung != RungHistory {
		t.Fatal("shape-class clone should reuse the recorded decision")
	}
	if d2.Chosen != first {
		t.Fatalf("reused candidate %s, want %s", d2.Chosen, first)
	}
	if len(d2.Measured) != 0 {
		t.Fatal("history hit should not measure")
	}
}

type stubPairPredictor struct {
	c    spgemm.Candidate
	conf float64
	ok   bool
}

func (p stubPairPredictor) PredictPair(fa, fb dataset.Features) (spgemm.Candidate, float64, bool) {
	return p.c, p.conf, p.ok
}

func TestSpGEMMPredictPolicy(t *testing.T) {
	a, b := pairBuilders(5, 16, 12, 10, 0.25)
	t.Run("confident", func(t *testing.T) {
		s := NewSpGEMM(SpGEMMConfig{
			Policy:    PolicyPredict,
			Predictor: stubPairPredictor{c: spgemm.BaseCandidate, conf: 0.9, ok: true},
		})
		d, err := s.ChooseContext(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Release()
		if d.Rung != RungPredictor || d.Chosen != spgemm.BaseCandidate {
			t.Fatalf("Rung=%v Chosen=%s, want trusted predictor answer", d.Rung, d.Chosen)
		}
		if d.Confidence != 0.9 {
			t.Fatalf("Confidence = %g, want 0.9", d.Confidence)
		}
	})
	t.Run("low-confidence-falls-back", func(t *testing.T) {
		h := &PairHistory{}
		s := NewSpGEMM(SpGEMMConfig{
			Policy:    PolicyPredict,
			Repeats:   1,
			History:   h,
			Predictor: stubPairPredictor{c: spgemm.BaseCandidate, conf: 0.2, ok: true},
		})
		d, err := s.ChooseContext(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Release()
		if d.Rung == RungPredictor {
			t.Fatal("low-confidence prediction must not be trusted")
		}
		if len(d.Measured) == 0 {
			t.Fatal("fallback should measure")
		}
		if h.Len() != 1 {
			t.Fatal("fallback measurement should be recorded for retraining")
		}
	})
	t.Run("no-predictor", func(t *testing.T) {
		s := NewSpGEMM(SpGEMMConfig{Policy: PolicyPredict})
		if _, err := s.ChooseContext(context.Background(), a, b); err != ErrNoPredictor {
			t.Fatalf("err = %v, want ErrNoPredictor", err)
		}
	})
}

func TestSpGEMMChooseCancellation(t *testing.T) {
	s := NewSpGEMM(SpGEMMConfig{Policy: Empirical, Repeats: 3})
	a, b := pairBuilders(6, 30, 30, 30, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ChooseContext(ctx, a, b); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

func TestPairHistorySaveLoad(t *testing.T) {
	h := &PairHistory{}
	fa := dataset.Features{M: 40, N: 30, NNZ: 200, Mdim: 9, Adim: 5, Vdim: 2, Density: 0.16}
	fb := dataset.Features{M: 30, N: 20, NNZ: 150, Mdim: 8, Adim: 5, Vdim: 3, Density: 0.25}
	want := spgemm.Candidate{Dataflow: spgemm.OuterProduct, AFormat: sparse.CSC, BFormat: sparse.CSR}
	h.RecordCandidate(fa, fb, want)

	var buf strings.Builder
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), pairHistoryFile.header+"\n") {
		t.Fatalf("saved history missing header:\n%s", buf.String())
	}
	got, err := loadPairHistory(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1", got.Len())
	}
	c, ok := got.Lookup(fa, fb, DefaultPairHistoryRadius)
	if !ok || c != want {
		t.Fatalf("Lookup = %s, %v; want %s", c, ok, want)
	}
	snap := got.Snapshot()
	if len(snap) != 1 || snap[0].Candidate != want || snap[0].Point != dataset.EmbedPair(fa, fb) {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}

	for _, bad := range []string{
		"#layoutsched-history v2\n",               // SMSV header on a pair file
		"1 2 3 gustavson/CSR/CSR\n",               // headerless
		pairHistoryFile.header + "\n1 2 3 nope\n", // wrong field count
	} {
		if _, err := loadPairHistory(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed history accepted: %q", bad)
		}
	}
}

func TestEstimatePairCandidatesDeterministic(t *testing.T) {
	fa := dataset.Features{M: 500, N: 400, NNZ: 2500, Mdim: 12, Adim: 6, Vdim: 2, Density: 0.0125}
	fb := dataset.Features{M: 400, N: 300, NNZ: 2000, Mdim: 10, Adim: 5, Vdim: 2, Density: 0.0167}
	e1 := EstimatePairCandidates(fa, fb)
	e2 := EstimatePairCandidates(fa, fb)
	if len(e1) != 5 {
		t.Fatalf("%d estimates, want 5", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("estimate ranking is not deterministic")
		}
		if i > 0 && e1[i].Cost < e1[i-1].Cost {
			t.Fatal("estimates not ascending")
		}
	}
	// On a large sparse grid the all-cells inner product must rank behind
	// the row-wise dataflow.
	cost := map[spgemm.Dataflow]float64{}
	for _, e := range e1 {
		if _, seen := cost[e.Candidate.Dataflow]; !seen {
			cost[e.Candidate.Dataflow] = e.Cost
		}
	}
	if cost[spgemm.InnerProduct] <= cost[spgemm.Gustavson] {
		t.Fatalf("inner cost %g should exceed gustavson %g on a large sparse grid",
			cost[spgemm.InnerProduct], cost[spgemm.Gustavson])
	}
}

func TestSpGEMMMeasureRetryTransient(t *testing.T) {
	// A deadline long enough for the decision but a cancelled context below
	// retry's timer path exercises the retry plumbing cheaply: the main
	// assertions live in the chaos suite, which reuses the same fault
	// sites; here we just pin that a timed-out ctx aborts the decision.
	s := NewSpGEMM(SpGEMMConfig{Policy: Empirical, Repeats: 2})
	a, b := pairBuilders(8, 40, 40, 40, 0.4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := s.ChooseContext(ctx, a, b); err == nil {
		t.Fatal("expired deadline accepted")
	}
}

// TestSpGEMMRetryJitterReproducible pins SpGEMMConfig.Seed's promise past
// the first decision: the RNG is reseeded at every choose, so the same
// transient failures back off by the same jittered delays each time, whatever
// the pooled scratch drew before.
func TestSpGEMMRetryJitterReproducible(t *testing.T) {
	s := NewSpGEMM(SpGEMMConfig{Policy: Hybrid, Seed: 5, RetryBackoff: 50 * time.Microsecond})
	a, b := pairBuilders(9, 20, 16, 12, 0.2)
	backoffs := func() (delays []string) {
		arm(t, "core.measure.err=1:2")
		ctx, tr, root := telemetry.NewTrace(context.Background(), "spgemm.retry")
		d, err := s.ChooseContext(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
		root.End()
		tr.Finish()
		for _, sp := range tr.Snapshot().Spans {
			if sp.Name == "measure.retry-backoff" {
				delays = append(delays, strings.Join(sp.AttrList, " "))
			}
		}
		return delays
	}
	first, second := backoffs(), backoffs()
	if len(first) != 2 || !slices.Equal(first, second) {
		t.Fatalf("retry backoffs differ between two decisions under one seed:\n first %v\nsecond %v", first, second)
	}
}

// TestAppendPairEstimatesMatchesSort: the pooled ranking is the one a sort by
// cost, ties toward the lower Index, gives, appended after what dst held,
// and with capacity at hand it allocates nothing.
func TestAppendPairEstimatesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := make([]PairEstimate, 0, 16)
	for i := 0; i < 200; i++ {
		f := func() dataset.Features {
			m, n := 1+rng.Intn(2000), 1+rng.Intn(2000)
			nnz := int64(1 + rng.Intn(m*4))
			return dataset.Features{M: m, N: n, NNZ: nnz, Mdim: 1 + rng.Intn(50), Density: float64(nnz) / float64(m*n)}
		}
		fa, fb := f(), f()
		fb.M = fa.N
		if i%7 == 0 {
			fb = fa // equal operands: ties between the two outer candidates
		}
		// The ranking as EstimatePairCandidates computed it before it was
		// pooled: every supported candidate costed, then sort.Slice.
		flops := float64(fa.NNZ) * float64(fb.NNZ) / float64(fa.N)
		var want []PairEstimate
		for _, c := range spgemm.AppendCandidates(nil) {
			want = append(want, PairEstimate{Candidate: c, Cost: spgemm.EstimateCost(c, fa.M, fb.N,
				storedApprox(fa, c.AFormat), storedApprox(fb, c.BFormat), int64(flops))})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Cost != want[j].Cost {
				return want[i].Cost < want[j].Cost
			}
			return want[i].Candidate.Index() < want[j].Candidate.Index()
		})
		dst = append(dst[:0], PairEstimate{Cost: -1})
		got := AppendPairEstimates(dst, fa, fb)
		if got[0].Cost != -1 || !slices.Equal(got[1:], want) {
			t.Fatalf("ranked %v after %v, want %v", got[1:], got[0], want)
		}
	}
	fa := dataset.Features{M: 500, N: 400, NNZ: 2500, Mdim: 12}
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendPairEstimates(dst[:0], fa, fa) }); allocs != 0 {
		t.Fatalf("AppendPairEstimates allocates %.0f objects with capacity at hand", allocs)
	}
}
