package sparse

import (
	"fmt"
	"strings"

	"repro/internal/exec"
)

// This file defines the joint scheduling candidate space. The paper's
// scheduler picks only a storage format; Auto-SpMV and Misam (PAPERS.md)
// show the real win comes from choosing the format *and* the kernel
// execution parameters jointly. A Candidate is one point in that space:
// a storage format, a chunking policy for the row-parallel loop, and a
// named kernel variant. Storage is unaffected by Chunk and Variant — they
// only select how the multiply kernel walks the stored elements — so a
// matrix materialized for one candidate serves every candidate sharing
// its format.

// ChunkPolicy selects how the parallel loop partitions rows across
// workers. Static is one contiguous chunk per worker; Guided hands out
// shrinking chunks from a shared counter, which rebalances skewed row
// lengths (the paper's Figure 4 effect) at a small dispatch overhead.
type ChunkPolicy uint8

const (
	// ChunkStatic is the default static row partition.
	ChunkStatic ChunkPolicy = iota
	// ChunkGuided is OpenMP-style guided self-scheduling.
	ChunkGuided

	numChunkPolicies = 2
)

// String returns the lowercase chunk-policy name.
func (c ChunkPolicy) String() string {
	switch c {
	case ChunkStatic:
		return "static"
	case ChunkGuided:
		return "guided"
	default:
		return fmt.Sprintf("chunk(%d)", int(c))
	}
}

// Sched is the loop schedule that carries the chunk policy out.
func (c ChunkPolicy) Sched() exec.Sched {
	if c == ChunkGuided {
		return exec.Guided
	}
	return exec.Static
}

// KernelVariant names one multiply-kernel implementation. Every variant of
// a format computes bitwise-identical results to the format's base kernel
// (same per-row accumulation order); they differ only in how they stream
// the stored elements.
type KernelVariant uint8

const (
	// VariantBase is the format's reference kernel: one MulVecSparse pass
	// per product.
	VariantBase KernelVariant = iota
	// VariantFused computes the SMO pair (X·X_high, X·X_low) in a single
	// sweep over the stored elements (MulVecSparse2), halving matrix
	// memory traffic. Available where the format implements PairMultiplier.
	// On CSC it is the column pair: two column walks, each over the columns
	// of its own row's support.
	VariantFused
	// VariantRowBlocked processes CSR rows in fixed-size blocks inside
	// each parallel chunk, improving locality of the row-pointer walk on
	// long chunks. CSR only.
	VariantRowBlocked
	// VariantBranchFree streams row-major ELL rows as subslices, hoisting
	// the layout branch and slot-index arithmetic out of the inner loop.
	// Row-major ELL only.
	VariantBranchFree

	numKernelVariants = 4
)

// String returns the lowercase variant name.
func (v KernelVariant) String() string {
	switch v {
	case VariantBase:
		return "base"
	case VariantFused:
		return "fused"
	case VariantRowBlocked:
		return "rowblocked"
	case VariantBranchFree:
		return "branchfree"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Candidate is one point in the joint (format × chunk × variant)
// scheduling space. The zero value of a Candidate for a format — base
// variant under a static chunk — reproduces the pre-joint scheduler's
// behavior exactly.
type Candidate struct {
	Format  Format
	Chunk   ChunkPolicy
	Variant KernelVariant
}

// NumCandidates is the size of the dense candidate index space
// (every format × chunk × variant combination, eligible or not), used by
// learners that vote over candidate indices.
const NumCandidates = len(AllFormats) * numChunkPolicies * numKernelVariants

// BaseCandidate returns the candidate that reproduces the format's
// pre-joint behavior: base kernel, static chunks.
func BaseCandidate(f Format) Candidate { return Candidate{Format: f} }

// Index maps the candidate into [0, NumCandidates) densely. It is an
// in-memory index (vote tables, tie order), not a persisted form: histories,
// model leaves and gossip carry candidate names, which ParseCandidate reads.
func (c Candidate) Index() int {
	return int(c.Format)*numChunkPolicies*numKernelVariants +
		int(c.Chunk)*numKernelVariants + int(c.Variant)
}

// CandidateAt inverts Index.
func CandidateAt(i int) Candidate {
	return Candidate{
		Format:  Format(i / (numChunkPolicies * numKernelVariants)),
		Chunk:   ChunkPolicy(i / numKernelVariants % numChunkPolicies),
		Variant: KernelVariant(i % numKernelVariants),
	}
}

// String renders the candidate as "FORMAT/chunk/variant", e.g.
// "CSR/guided/rowblocked". This is the persisted wire form used by
// history files and model leaves. An in-range candidate's comes from a
// table built once, so naming one — in gossip, harvest records, a lookup
// answer — allocates nothing.
func (c Candidate) String() string {
	if int(c.Format) >= 0 && int(c.Format) < len(AllFormats) && c.Chunk < numChunkPolicies && c.Variant < numKernelVariants {
		return candidateNames[c.Index()]
	}
	return c.name()
}

func (c Candidate) name() string {
	return c.Format.String() + "/" + c.Chunk.String() + "/" + c.Variant.String()
}

var candidateNames = func() (t [NumCandidates]string) {
	for i := range t {
		t[i] = CandidateAt(i).name()
	}
	return t
}()

// ParseCandidate parses the String form. A bare format name (the v1
// history wire form) parses as that format's base candidate, so old
// persisted artifacts migrate transparently.
func ParseCandidate(s string) (Candidate, error) {
	format, rest, full := strings.Cut(s, "/")
	f, err := ParseFormat(format)
	if err != nil {
		return Candidate{}, fmt.Errorf("sparse: candidate %q: %w", s, err)
	}
	c := Candidate{Format: f}
	if !full {
		return c, nil
	}
	chunk, variant, ok := strings.Cut(rest, "/")
	if !ok || strings.Contains(variant, "/") {
		return Candidate{}, fmt.Errorf("sparse: candidate %q: want FORMAT or FORMAT/chunk/variant", s)
	}
	switch chunk {
	case "static":
		c.Chunk = ChunkStatic
	case "guided":
		c.Chunk = ChunkGuided
	default:
		return Candidate{}, fmt.Errorf("sparse: candidate %q: unknown chunk policy %q", s, chunk)
	}
	switch variant {
	case "base":
		c.Variant = VariantBase
	case "fused":
		c.Variant = VariantFused
	case "rowblocked":
		c.Variant = VariantRowBlocked
	case "branchfree":
		c.Variant = VariantBranchFree
	default:
		return Candidate{}, fmt.Errorf("sparse: candidate %q: unknown kernel variant %q", s, variant)
	}
	if !c.Valid() {
		return Candidate{}, fmt.Errorf("sparse: candidate %q: variant %s not implemented for %s", s, c.Variant, c.Format)
	}
	return c, nil
}

// VariantSupported reports whether a kernel variant is implemented for a
// format. Base is universal; fused needs a PairMultiplier implementation;
// the blocked and branch-free kernels are format-specific.
func VariantSupported(f Format, v KernelVariant) bool {
	switch v {
	case VariantBase:
		return true
	case VariantFused:
		switch f {
		case CSR, DEN, ELL, DIA, CSC:
			return true
		}
		return false
	case VariantRowBlocked:
		return f == CSR
	case VariantBranchFree:
		return f == ELL
	default:
		return false
	}
}

// Valid reports whether the candidate names an implemented combination.
func (c Candidate) Valid() bool {
	return VariantSupported(c.Format, c.Variant) && c.Chunk < numChunkPolicies
}

// AppendCandidates appends every candidate worth considering for format f
// to dst and returns it, allocation-free when dst has capacity. Guided
// chunking is enumerated only for CSR under a parallel execution context:
// CSR is the one format whose static row partition suffers from skewed
// row lengths (Figure 4); for the fixed-work-per-row formats guided adds
// dispatch overhead with nothing to rebalance, and serially the two
// policies are identical.
func AppendCandidates(dst []Candidate, f Format, parallel bool) []Candidate {
	chunks := 1
	if parallel && f == CSR {
		chunks = numChunkPolicies
	}
	for ch := 0; ch < chunks; ch++ {
		for v := KernelVariant(0); v < numKernelVariants; v++ {
			if VariantSupported(f, v) {
				dst = append(dst, Candidate{Format: f, Chunk: ChunkPolicy(ch), Variant: v})
			}
		}
	}
	return dst
}
