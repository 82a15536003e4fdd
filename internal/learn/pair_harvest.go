package learn

import (
	"context"
	"maps"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// measurePair labels one (A, B) pair by empirical measurement: every
// supported dataflow candidate is built and timed and the fastest becomes
// the label.
func measurePair(ctx context.Context, p [2]*sparse.Builder, ex *exec.Exec, seed int64) (pairLabeled, error) {
	dec, err := core.NewSpGEMM(core.SpGEMMConfig{Policy: core.Empirical, Exec: ex, Seed: seed}).ChooseContext(ctx, p[0], p[1])
	return labelFrom(dec, err, func(d *core.SpGEMMDecision) pairLabeled {
		return pairLabeled{Recorded: FromPairFeatures(d.AFeatures, d.BFeatures, d.Chosen), Times: maps.Clone(d.Measured)}
	})
}

// syntheticPairCorpus generates n conformable (A: m×k, B: k×n) operand
// pairs cycling structure families that separate the dataflows: sparse
// uniform pairs (Gustavson territory), a dense-ish A against a hypersparse
// B (outer-product friendly — few columns of A are ever touched), dense
// pairs whose inner dimension dwarfs the output width (inner-product
// viable — the all-cells probe is cheaper than hauling A's rows around),
// skewed-row A against regular B (ELL-hostile A side), and banded pairs
// (regular rows, ELL-friendly). Sizes are kept small: SpGEMM measurement
// sweeps cost a full product per candidate.
func syntheticPairCorpus(n int, seed int64) [][2]*sparse.Builder {
	rng := rand.New(rand.NewSource(seed))
	uniform := func(r, c int, density float64) *sparse.Builder {
		b := sparse.NewBuilder(r, c)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if rng.Float64() < density {
					b.Add(i, j, rng.NormFloat64())
				}
			}
		}
		if b.Len() == 0 {
			b.Add(rng.Intn(r), rng.Intn(c), 1)
		}
		return b
	}
	out := make([][2]*sparse.Builder, 0, n)
	for i := 0; len(out) < n; i++ {
		var a, b *sparse.Builder
		switch i % 5 {
		case 0: // uniform sparse pair
			m, k, c := 48+rng.Intn(48), 48+rng.Intn(48), 48+rng.Intn(48)
			a, b = uniform(m, k, 0.02+0.05*rng.Float64()), uniform(k, c, 0.02+0.05*rng.Float64())
		case 1: // dense-ish A × hypersparse B: outer-product friendly
			m, k, c := 128+rng.Intn(128), 64+rng.Intn(32), 24+rng.Intn(24)
			a = uniform(m, k, 0.1)
			b = sparse.NewBuilder(k, c)
			for e := 0; e < 8; e++ {
				b.Add(rng.Intn(k), rng.Intn(c), rng.NormFloat64())
			}
		case 2: // dense pair, inner dim >> output width: inner product viable
			m, k, c := 12+rng.Intn(12), 32+rng.Intn(32), 6+rng.Intn(6)
			a, b = uniform(m, k, 0.7+0.25*rng.Float64()), uniform(k, c, 0.7+0.25*rng.Float64())
		case 3: // skewed A (one long row) against a regular B
			m, k, c := 64+rng.Intn(64), 64, 32+rng.Intn(32)
			a = sparse.NewBuilder(m, k)
			for j := 0; j < k; j++ {
				a.Add(0, j, rng.NormFloat64())
			}
			for r := 1; r < m; r++ {
				a.Add(r, rng.Intn(k), rng.NormFloat64())
			}
			b = uniform(k, c, 0.05)
		case 4: // banded pair: uniform short rows on both sides
			s := 48 + rng.Intn(64)
			a = sparse.NewBuilder(s, s)
			b = sparse.NewBuilder(s, s)
			for r := 0; r < s; r++ {
				for d := -1; d <= 1; d++ {
					if j := r + d; j >= 0 && j < s {
						a.Add(r, j, rng.NormFloat64())
						b.Add(r, j, rng.NormFloat64())
					}
				}
			}
		}
		out = append(out, [2]*sparse.Builder{a, b})
	}
	return out
}

// pairLabeled is a measurement-labeled operand pair.
type pairLabeled = Measured[[dataset.PairEmbedDims]float64, spgemm.Candidate]
