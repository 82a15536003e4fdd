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

// The column dataflow, candidate CSC/static/fused, is priced beside the
// paper's five formats rather than among them: its products do not stream
// the matrix but walk the columns of the data row's support. A product reads
// 12 bytes per element it touches (value and row index, as CSR's) and writes
// 8 per output row, and the elements it touches are, in expectation over the
// data rows, Σ_j nnz_j²/M (Extractor.Touched). The uniform-popularity value
// Adim·NNZ/N is only a lower bound of that: it undercounts most where popular
// columns hold nearly every row, which is where the walk reads about every
// stored element and loses to the row formats. The pair's two walks share no
// sweep, so the pair costs two products.
//
// WeightColumn is the column walk's per-byte weight. It is fitted, not a
// setting: serially, on the Table V clones, a walk costs 0.7–1.0 ns per
// element it touches and product, about what a fused CSR pair costs per
// stored element and product, which fits weights of 0.41–0.68 clone by clone
// (sector's, whose products spend most of their time starting columns, is
// higher). At 0.65 a product that touches every stored element — a dense
// matrix — prices just above the fused CSR pair; the two measure within 10 %
// of each other there, either way round from run to run, so a dense matrix's
// hybrid keeps measuring the paper's formats. DESIGN.md §11 has the table.
const WeightColumn = 0.65

// ColumnCandidate is the column dataflow's joint candidate.
var ColumnCandidate = sparse.Candidate{Format: sparse.CSC, Chunk: sparse.ChunkStatic, Variant: sparse.VariantFused}

// columnCost is the column dataflow's modeled pair-unit cost for an m-row
// matrix whose products touch touched stored elements each, in Estimate.Cost
// units.
func columnCost(m int, touched float64) float64 {
	return 2 * (12*touched + 8*float64(m)) * WeightColumn
}

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
// EstimateCosts) into the joint candidate space, adds ColumnCandidate at
// cost column when that is positive (columnCost; zero leaves it out, as for
// a profile, which carries no column counts), appends to dst, and returns it
// sorted by ascending cost. parallel gates the guided-chunk candidates, which
// only exist under a multi-worker execution context. The call is
// allocation-free when dst has capacity.
func AppendCandidateEstimates(dst []CandidateEstimate, ests []Estimate, column float64, parallel bool) []CandidateEstimate {
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
	if column > 0 {
		dst = append(dst, CandidateEstimate{Candidate: ColumnCandidate, Cost: column})
	}
	// Insertion sort: the joint space is ≤ 15 entries and the hot path
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
