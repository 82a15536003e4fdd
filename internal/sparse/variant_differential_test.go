package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
)

// Variant differential harness: every joint candidate's pair unit must be
// (a) bitwise identical to the base kernel run twice — variants change
// instruction mix, never numerics — and (b) within reassociation tolerance
// of the independent dense reference, serially and pooled, with scratch
// restored to zero afterwards.

func TestCandidateEnumeration(t *testing.T) {
	var buf []Candidate
	for _, f := range AllFormats {
		buf = AppendCandidates(buf[:0], f, true)
		seen := map[Candidate]bool{}
		for _, c := range buf {
			if !c.Valid() {
				t.Fatalf("%v enumerates invalid candidate %v", f, c)
			}
			if c.Format != f {
				t.Fatalf("%v enumerated under %v", c, f)
			}
			if seen[c] {
				t.Fatalf("duplicate candidate %v", c)
			}
			seen[c] = true
			if c.Chunk == ChunkGuided && f != CSR {
				t.Fatalf("guided chunk enumerated for %v", f)
			}
		}
		if !seen[BaseCandidate(f)] {
			t.Fatalf("%v enumeration misses base candidate", f)
		}
		serial := AppendCandidates(nil, f, false)
		for _, c := range serial {
			if c.Chunk != ChunkStatic {
				t.Fatalf("serial enumeration yields %v", c)
			}
		}
	}
}

func TestCandidateIndexRoundTrip(t *testing.T) {
	seen := map[int]bool{}
	for fi := range AllFormats {
		for ch := ChunkPolicy(0); ch < numChunkPolicies; ch++ {
			for v := KernelVariant(0); v < numKernelVariants; v++ {
				c := Candidate{Format: AllFormats[fi], Chunk: ch, Variant: v}
				i := c.Index()
				if i < 0 || i >= NumCandidates {
					t.Fatalf("%v index %d out of [0,%d)", c, i, NumCandidates)
				}
				if seen[i] {
					t.Fatalf("index collision at %d", i)
				}
				seen[i] = true
				if got := CandidateAt(i); got != c {
					t.Fatalf("CandidateAt(%d) = %v, want %v", i, got, c)
				}
			}
		}
	}
}

func TestCandidateStringRoundTrip(t *testing.T) {
	for _, f := range AllFormats {
		for _, c := range AppendCandidates(nil, f, true) {
			got, err := ParseCandidate(c.String())
			if err != nil {
				t.Fatalf("ParseCandidate(%q): %v", c.String(), err)
			}
			if got != c {
				t.Fatalf("round trip %q -> %v", c.String(), got)
			}
		}
	}
	// Bare format names (the v1 history wire form) parse as base candidates.
	c, err := ParseCandidate("CSR")
	if err != nil || c != BaseCandidate(CSR) {
		t.Fatalf("ParseCandidate(CSR) = %v, %v", c, err)
	}
	for _, bad := range []string{"", "XYZ", "CSR/static", "CSR/", "CSR//", "CSR/static/base/", "CSR/static/base/fused", "CSR/sometimes/base", "CSR/static/vectorized", "COO/static/fused", "DEN/static/rowblocked"} {
		if _, err := ParseCandidate(bad); err == nil {
			t.Fatalf("ParseCandidate(%q) accepted", bad)
		}
	}
	// Every name, tabled or not, is the three parts joined; naming an
	// in-range candidate allocates nothing.
	for i := 0; i < NumCandidates; i++ {
		c := CandidateAt(i)
		if want := c.Format.String() + "/" + c.Chunk.String() + "/" + c.Variant.String(); c.String() != want {
			t.Fatalf("candidate %d is named %q, want %q", i, c.String(), want)
		}
	}
	if got := (Candidate{Format: 99, Chunk: 7, Variant: 9}).String(); got != "Format(99)/chunk(7)/variant(9)" {
		t.Fatalf("out-of-range candidate named %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = CandidateAt(NumCandidates - 1).String() }); allocs != 0 {
		t.Fatalf("naming a candidate allocates %.0f objects", allocs)
	}
}

// TestDifferentialVariantsBitwise runs every candidate's pair unit on the
// property-test corpus and requires bitwise equality with two base-kernel
// passes on the same matrix, plus tolerance agreement with the dense
// reference.
func TestDifferentialVariantsBitwise(t *testing.T) {
	ex := texec(t, 4, exec.Static)
	rng := rand.New(rand.NewSource(41))
	var cands []Candidate
	for _, c := range diffCases() {
		xs := xVariants(c.cols, rng)
		x1, x2 := xs[2], xs[3]
		want1, want2 := refSMSV(c, x1), refSMSV(c, x2)
		for _, f := range BasicFormats {
			m, err := c.b.Build(f)
			if err != nil {
				if f == DIA {
					continue
				}
				t.Fatalf("%s: %v failed to build: %v", c.name, f, err)
			}
			base1 := make([]float64, c.rows)
			base2 := make([]float64, c.rows)
			scratch := make([]float64, c.cols)
			cands = AppendCandidates(cands[:0], f, true)
			for _, cand := range cands {
				for mode, e := range map[string]*exec.Exec{"serial": nil, "pooled": ex} {
					run := e
					if cand.Chunk == ChunkGuided && e != nil {
						run = e.WithSched(exec.Guided)
					}
					// The bitwise reference is the base kernel under the
					// same execution context: COO's nnz-parallel partition
					// reassociates across worker counts, but a variant must
					// never reassociate relative to base on one schedule.
					m.MulVecSparse(base1, x1, scratch, run)
					m.MulVecSparse(base2, x2, scratch, run)
					var s PairScratch
					s.Grow(c.rows, c.cols)
					cand.RunPair(m, s.Dst1, s.Dst2, x1, x2, s.Scratch1, s.Scratch2, run)
					for i := range s.Dst1 {
						if s.Dst1[i] != base1[i] || s.Dst2[i] != base2[i] {
							t.Fatalf("%s/%v/%s: row %d not bitwise equal to base (%v,%v) vs (%v,%v)",
								c.name, cand, mode, i, s.Dst1[i], s.Dst2[i], base1[i], base2[i])
						}
					}
					if !almostEqual(s.Dst1, want1, 1e-9) || !almostEqual(s.Dst2, want2, 1e-9) {
						t.Fatalf("%s/%v/%s: pair unit diverges from dense reference", c.name, cand, mode)
					}
					for j := range s.Scratch1 {
						if s.Scratch1[j] != 0 || s.Scratch2[j] != 0 {
							t.Fatalf("%s/%v/%s: scratch not restored at %d", c.name, cand, mode, j)
						}
					}
				}
			}
		}
	}
}

// TestVariantFallbacks: a candidate asked to run on a matrix that cannot
// satisfy its variant degrades to the base kernels instead of failing.
func TestVariantFallbacks(t *testing.T) {
	c := diffCases()[4] // uniform-medium
	rng := rand.New(rand.NewSource(43))
	xs := xVariants(c.cols, rng)
	x1, x2 := xs[2], xs[2]
	coo := c.b.MustBuild(COO)
	var s PairScratch
	s.Grow(c.rows, c.cols)
	// COO has no fused kernel; RunPair must fall back to two base passes.
	Candidate{Format: COO, Variant: VariantFused}.RunPair(coo, s.Dst1, s.Dst2, x1, x2, s.Scratch1, s.Scratch2, nil)
	want := refSMSV(c, x1)
	if !almostEqual(s.Dst1, want, 1e-9) || !almostEqual(s.Dst2, want, 1e-9) {
		t.Fatal("COO fused fallback diverges")
	}
	// Only ELL has a branch-free kernel; asked of CSR, the variant falls
	// back to the base kernel and must still agree.
	csr := c.b.MustBuild(CSR)
	Candidate{Format: CSR, Variant: VariantBranchFree}.RunPair(csr, s.Dst1, s.Dst2, x1, x2, s.Scratch1, s.Scratch2, nil)
	if !almostEqual(s.Dst1, want, 1e-9) {
		t.Fatal("CSR branch-free fallback diverges")
	}
}

// TestPairScratchReuse: Grow reuses capacity and keeps the scatter
// workspaces zero across shrink/grow cycles.
func TestPairScratchReuse(t *testing.T) {
	var s PairScratch
	s.Grow(10, 20)
	p1 := &s.Scratch1[0]
	s.Scratch1[5] = 1 // simulate kernel use...
	s.Scratch1[5] = 0 // ...and the gather restore
	s.Grow(4, 8)
	s.Grow(10, 20)
	if &s.Scratch1[0] != p1 {
		t.Fatal("Grow reallocated despite sufficient capacity")
	}
	for _, x := range s.Scratch1 {
		if x != 0 {
			t.Fatal("workspace not zero after regrow")
		}
	}
}
