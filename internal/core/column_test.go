package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// columnRank is where the joint ranking puts the column candidate, or -1.
func columnRank(d *Decision) int {
	return slices.IndexFunc(d.Candidates, func(e CandidateEstimate) bool { return e.Candidate == ColumnCandidate })
}

// TestColumnCandidateInHybridTopTwo: the column dataflow enters the joint
// ranking the rule-based, hybrid and predict-fallback rungs read. On the six
// sparse Table V clones it is among the two candidates a default hybrid
// decision measures — its products touch 0.5–34 % of what a row format
// streams — and on the dense gisette, where it touches every element, it is
// not, serially or on two workers (which adds CSR's guided candidates).
func TestColumnCandidateInHybridTopTwo(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := New(Config{Policy: RuleBased, Exec: exec.New(workers, exec.Static)})
		for _, name := range []string{"adult", "aloi", "mnist", "trefethen", "connect-4", "sector", "gisette"} {
			ds, err := dataset.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := s.Choose(ds.MustGenerate(1))
			if err != nil {
				t.Fatal(err)
			}
			rank := columnRank(d)
			if inTopTwo := rank >= 0 && rank < 2; inTopTwo != (name != "gisette") {
				t.Errorf("%s, %d workers: the column candidate ranks %d of %d (top %v)", name, workers, rank, len(d.Candidates), d.Candidates[:2])
			}
			if len(d.Estimates) != len(sparse.BasicFormats) {
				t.Errorf("%s: %d estimate rows, want the five Table II rows", name, len(d.Estimates))
			}
			d.Release()
		}
	}
}

// zipfColumns fills an m×n matrix whose column popularity is Zipf: each row
// draws draws column indices with P(j) ∝ (1+j)^-s, a repeated draw adding to
// the same entry.
func zipfColumns(m, n, draws int, s float64, seed int64) *sparse.Builder {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	b := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for k := 0; k < draws; k++ {
			b.Add(i, int(z.Uint64()), 1+rng.Float64())
		}
	}
	return b
}

// TestSkewedColumnsRankColumnCandidateBelow: the column candidate's cost row
// counts what a product touches as Σ_j nnz_j²/M, which the popular columns
// dominate, not as the uniform-popularity Adim·NNZ/N, its lower bound. On a
// matrix whose popular columns hold nearly every row, the column walk reads
// nearly every stored element per product, and rule-based ranks it below the
// best row format (DEN's fused pair, which measured 1.6× as fast there).
func TestSkewedColumnsRankColumnCandidateBelow(t *testing.T) {
	b := zipfColumns(600, 300, 3000, 1.05, 1)
	var e dataset.Extractor
	f, _ := e.Triplets(b.Triplets())
	touched := e.Touched(b.Triplets())
	if uniform := f.Adim * float64(f.NNZ) / float64(f.N); touched <= uniform {
		t.Fatalf("touched %v is not above the uniform-popularity %v: the columns are not skewed", touched, uniform)
	}
	if share := touched / float64(f.NNZ); share < 0.85 {
		t.Fatalf("a product touches %.2f of the stored elements: the popular columns do not hold most rows", share)
	}
	d, err := New(Config{Policy: RuleBased, Exec: exec.Serial()}).Choose(b)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Release()
	if rank := columnRank(d); rank < 1 || d.ChosenCandidate == ColumnCandidate {
		t.Fatalf("the column candidate ranks %d, chosen %v: want it below the best row format", rank, d.ChosenCandidate)
	}
}

// TestEmpiricalSpaceIsThePaperFormats: Empirical measures the paper's five
// formats' joint candidates and nothing else — the column dataflow reaches
// decisions through the cost-model ranking, so Table VI and Figure 7, which
// run Empirical, keep the paper's comparison and a first contact measures
// what it did. An Empirical decision does not price the column row either.
func TestEmpiricalSpaceIsThePaperFormats(t *testing.T) {
	b := buildRandom(t, 60, 40, 0.1, 7)
	for _, workers := range []int{1, 2} {
		ex := exec.New(workers, exec.Static)
		var want []sparse.Candidate
		for _, f := range sparse.BasicFormats {
			want = sparse.AppendCandidates(want, f, workers > 1)
		}
		s := New(Config{Policy: Empirical, Exec: ex, TrialRows: 2, Repeats: 1})
		if got := s.ladder.space; !slices.Equal(got, want) {
			t.Errorf("%d workers: Empirical measures %v, want %v", workers, got, want)
		}
		d, err := s.Choose(b)
		if err != nil {
			t.Fatal(err)
		}
		if rank := columnRank(d); rank >= 0 || len(d.Measured) != len(want) {
			t.Errorf("%d workers: the column row ranks %d, %d candidates measured, want no column row and %d", workers, rank, len(d.Measured), len(want))
		}
		d.Release()
	}
}
