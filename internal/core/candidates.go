package core

import "repro/internal/sparse"

// The joint cost model extends the per-format estimates into the
// (format × chunk × variant) candidate space. Chunk and variant do not
// change what is stored, only how the kernel streams it, so each
// candidate's cost is the format's modeled cost scaled by calibrated
// execution factors:
//
//   - fused halves matrix traffic over the SMO pair (two products share
//     one sweep of A), but the interleaved dual accumulation is not quite
//     free — calibrated at 0.55× the two-pass cost;
//   - rowblocked and branchfree are small instruction-mix wins on the
//     formats that support them;
//   - guided chunking neutralizes CSR's static-partition imbalance (the
//     Figure 4 penalty the format model charges as 1 + β·vdim/adim) at a
//     small dispatch overhead, so it wins exactly when rows are skewed.
const (
	// FusedPairFactor scales a candidate's pair-unit cost when the two SMO
	// products share one sweep over the stored elements.
	FusedPairFactor = 0.55
	// RowBlockedFactor is the blocked CSR walk's locality win.
	RowBlockedFactor = 0.97
	// BranchFreeFactor is the branch-free ELL inner loop's win.
	BranchFreeFactor = 0.95
	// GuidedOverheadFactor is guided self-scheduling's dispatch cost.
	GuidedOverheadFactor = 1.02
)

// CandidateEstimate is one joint candidate's modeled pair-unit cost, in
// the same arbitrary units as Estimate.Cost (two base products = 2×
// the format estimate).
type CandidateEstimate struct {
	Candidate sparse.Candidate
	Cost      float64
}

// variantFactor returns the execution-cost multiplier for a kernel
// variant, relative to two base-kernel passes over the pair unit.
func variantFactor(v sparse.KernelVariant) float64 {
	switch v {
	case sparse.VariantFused:
		return FusedPairFactor
	case sparse.VariantRowBlocked:
		return RowBlockedFactor
	case sparse.VariantBranchFree:
		return BranchFreeFactor
	default:
		return 1
	}
}

// AppendCandidateEstimates expands per-format estimates (as produced by
// EstimateCosts) into the joint candidate space, appends to dst, and
// returns it sorted by ascending cost. parallel gates the guided-chunk
// candidates, which only exist under a multi-worker execution context.
// The call is allocation-free when dst has capacity.
func AppendCandidateEstimates(dst []CandidateEstimate, ests []Estimate, parallel bool) []CandidateEstimate {
	start := len(dst)
	var buf [8]sparse.Candidate
	for _, e := range ests {
		for _, c := range sparse.AppendCandidates(buf[:0], e.Format, parallel) {
			cost := 2 * e.Cost * variantFactor(c.Variant)
			if c.Chunk == sparse.ChunkGuided {
				// Guided rebalances the skew the imbalance factor charges,
				// at a dispatch overhead.
				cost = cost / e.Imbalance * GuidedOverheadFactor
			}
			dst = append(dst, CandidateEstimate{Candidate: c, Cost: cost})
		}
	}
	// Insertion sort: the joint space is ≤ 14 entries and the hot path
	// must not allocate (sort.Slice does).
	s := dst[start:]
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessCandidateEstimate(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return dst
}

func lessCandidateEstimate(a, b CandidateEstimate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Candidate.Index() < b.Candidate.Index()
}
