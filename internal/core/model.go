// Package core implements the paper's primary contribution: a runtime data
// layout scheduler that selects the best sparse storage format (DEN, CSR,
// COO, ELL, DIA) for a machine-learning data matrix from the nine
// influencing parameters of Table IV, optionally refined by empirical
// micro-benchmarking of the SMO kernel on the actual data.
package core

import (
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// The rule-based cost model estimates SMSV time per format as
//
//	cost = bytesStreamed × accessWeight × imbalance
//
// following the paper's bandwidth argument (Equation 7: execution time ≳
// transferred memory / bandwidth). bytesStreamed comes from the Table II
// storage footprints — every kernel in internal/sparse touches exactly its
// stored elements. accessWeight folds in how efficiently a format streams
// (dense sequential access needs no index loads; DIA's per-element bounds
// branch is the most expensive). imbalance penalizes CSR's static row
// partitioning when row lengths vary (the Figure 4 effect): COO
// parallelizes over nonzeros and is immune, ELL/DEN/DIA do identical work
// per row regardless of fill.
const (
	// WeightDEN..WeightDIA are per-byte access-efficiency weights,
	// calibrated on the paper's Table III/VI rankings (see DESIGN.md §4).
	WeightDEN = 1.0
	WeightCSR = 1.1
	WeightCOO = 1.25
	WeightELL = 1.1
	WeightDIA = 1.4
	// ImbalanceBeta scales CSR's skew penalty 1 + β·vdim/adim. The
	// normalized variance vdim/adim is the paper's Figure 4 x-axis
	// rescaled by the mean row length.
	ImbalanceBeta = 0.06
)

// Estimate is one format's modeled cost, with the factors broken out so
// tools can explain the decision.
type Estimate struct {
	Format    sparse.Format
	Bytes     int64   // modeled bytes streamed per SMSV
	Weight    float64 // access-efficiency weight
	Imbalance float64 // load-imbalance factor (≥ 1)
	Cost      float64 // Bytes × Weight × Imbalance
}

// EstimateCosts evaluates the rule-based model on a feature vector and
// returns one Estimate per basic format, sorted by ascending cost (the
// first entry is the model's selection).
func EstimateCosts(f dataset.Features) []Estimate {
	return AppendEstimates(make([]Estimate, 0, len(sparse.BasicFormats)), f)
}

// AppendEstimates appends one Estimate per basic format to dst, sorted by
// ascending cost, and returns it. It is the allocation-free form of
// EstimateCosts for pooled hot paths: with capacity available it neither
// allocates nor calls the reflect-based sort.
func AppendEstimates(dst []Estimate, f dataset.Features) []Estimate {
	m, n := int64(f.M), int64(f.N)
	stride := m
	if n < m {
		stride = n
	}
	imbCSR := 1.0
	if f.Adim > 0 {
		imbCSR = 1 + ImbalanceBeta*f.Vdim/f.Adim
	}
	start := len(dst)
	dst = append(dst,
		Estimate{Format: sparse.DEN, Bytes: 8 * m * n, Weight: WeightDEN, Imbalance: 1},
		Estimate{Format: sparse.CSR, Bytes: 12*f.NNZ + 8*m, Weight: WeightCSR, Imbalance: imbCSR},
		Estimate{Format: sparse.COO, Bytes: 16 * f.NNZ, Weight: WeightCOO, Imbalance: 1},
		Estimate{Format: sparse.ELL, Bytes: 12 * m * int64(f.Mdim), Weight: WeightELL, Imbalance: 1},
		Estimate{Format: sparse.DIA, Bytes: 8*int64(f.Ndig)*stride + 4*int64(f.Ndig), Weight: WeightDIA, Imbalance: 1},
	)
	ests := dst[start:]
	for i := range ests {
		ests[i].Cost = float64(ests[i].Bytes) * ests[i].Weight * ests[i].Imbalance
	}
	// Insertion sort over the five entries keeps the hot path off
	// sort.Slice's reflection machinery.
	for i := 1; i < len(ests); i++ {
		for j := i; j > 0 && lessEstimate(ests[j], ests[j-1]); j-- {
			ests[j], ests[j-1] = ests[j-1], ests[j]
		}
	}
	return dst
}

func lessEstimate(a, b Estimate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Format < b.Format
}

// RuleBasedChoice returns the model's best format for a feature vector.
func RuleBasedChoice(f dataset.Features) sparse.Format {
	return EstimateCosts(f)[0].Format
}
