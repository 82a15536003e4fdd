package online

import (
	"math/rand"
	"testing"
)

// randomStream generates n valid records with randomized measurement
// maps over the given candidate alphabet.
func randomStream(rng *rand.Rand, n int, kind Kind) []Record {
	smsvCands := []string{
		"CSR/static/base", "COO/static/base", "ELL/static/base",
		"DIA/static/base", "CSR/guided/fused",
	}
	pairCands := []string{"gustavson/CSR/CSR", "inner/CSR/CSC", "outer/CSC/CSR", "gustavson/ELL/CSR"}
	cands := smsvCands
	if kind == KindPair {
		cands = pairCands
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(len(cands)-1)
		perm := rng.Perm(len(cands))[:k]
		times := make(map[string]int64, k)
		best, bestNS := "", int64(0)
		for _, ci := range perm {
			ns := int64(1 + rng.Intn(10_000))
			times[cands[ci]] = ns
			if bestNS == 0 || ns < bestNS {
				best, bestNS = cands[ci], ns
			}
		}
		var r Record
		if kind == KindPair {
			r = pairRecord(best, nil)
		} else {
			r = smsvRecord(best, nil)
		}
		r.Times = times
		r.Seq = uint64(i + 1)
		r.At = int64(i + 1)
		if err := r.Validate(); err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

// randomModel predicts a random alphabet member, sometimes abstains,
// sometimes predicts a candidate outside the record's measurement map —
// all the paths ScoreRecord handles.
func randomModel(rng *rand.Rand, kind Kind) PredictFunc {
	smsvCands := []string{
		"CSR/static/base", "COO/static/base", "ELL/static/base",
		"DIA/static/base", "CSR/guided/fused", "CSC/static/fused",
	}
	pairCands := []string{"gustavson/CSR/CSR", "inner/CSR/CSC", "outer/CSC/CSR", "gustavson/ELL/CSR"}
	cands := smsvCands
	if kind == KindPair {
		cands = pairCands
	}
	// Pre-draw decisions keyed by Seq so the model is a pure function:
	// the differential property needs identical predictions across the
	// incremental and batch passes.
	picks := map[uint64]string{}
	return func(r Record) (string, bool) {
		pick, ok := picks[r.Seq]
		if !ok {
			if rng.Intn(10) == 0 {
				pick = "" // abstain
			} else {
				pick = cands[rng.Intn(len(cands))]
			}
			picks[r.Seq] = pick
		}
		return pick, pick != ""
	}
}

// TestShadowIncrementalMatchesBatch is the differential property:
// folding records one at a time through Observe must give exactly the
// same stats as a from-scratch EvalShadow over the same window, for
// randomized streams of both workloads.
func TestShadowIncrementalMatchesBatch(t *testing.T) {
	for _, kind := range []Kind{KindSMSV, KindPair} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			recs := randomStream(rng, 50+rng.Intn(200), kind)
			model := randomModel(rng, kind)

			var inc ShadowStats
			for _, r := range recs {
				hit, regret, ok := ScoreRecord(r, model)
				if !ok {
					continue
				}
				if regret < 1 {
					t.Fatalf("seed %d: regret %g below 1", seed, regret)
				}
				inc.Observe(hit, regret)
			}
			batch := EvalShadow(recs, model)
			if inc != batch {
				t.Fatalf("seed %d kind %s: incremental %+v != batch %+v", seed, kind, inc, batch)
			}
		}
	}
}

func TestScoreRecordPessimisticPaths(t *testing.T) {
	r := smsvRecord("CSR/static/base", map[string]int64{
		"CSR/static/base": 100, "COO/static/base": 400,
	})
	abstain := func(Record) (string, bool) { return "", false }
	hit, regret, ok := ScoreRecord(r, abstain)
	if !ok || hit || regret != 4.0 {
		t.Fatalf("abstain scored (%v,%g,%v), want miss at worst/best=4", hit, regret, ok)
	}
	unmeasured := func(Record) (string, bool) { return "DIA/static/base", true }
	hit, regret, ok = ScoreRecord(r, unmeasured)
	if !ok || hit || regret != 4.0 {
		t.Fatalf("unmeasured pick scored (%v,%g,%v), want miss at 4", hit, regret, ok)
	}
	oracle := func(Record) (string, bool) { return "CSR/static/base", true }
	hit, regret, ok = ScoreRecord(r, oracle)
	if !ok || !hit || regret != 1.0 {
		t.Fatalf("oracle scored (%v,%g,%v), want hit at 1", hit, regret, ok)
	}
	slower := func(Record) (string, bool) { return "COO/static/base", true }
	hit, regret, ok = ScoreRecord(r, slower)
	if !ok || hit || regret != 4.0 {
		t.Fatalf("slower pick scored (%v,%g,%v), want miss at 4", hit, regret, ok)
	}
	if _, _, ok := ScoreRecord(Record{}, oracle); ok {
		t.Fatal("record without measurements should be unscoreable")
	}
}

func TestShadowStatsZeroWindow(t *testing.T) {
	var s ShadowStats
	if s.HitRate() != 0 || s.MeanRegret() != 0 {
		t.Fatalf("zero stats rate/regret = %g/%g, want 0/0", s.HitRate(), s.MeanRegret())
	}
}
