package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// TestEveryFormatIsScheduled: every format the sparse package lists is one a
// scheduler can choose, as the format of a candidate in the SMSV joint
// ranking (the paper's five formats and the column candidate) or as an
// operand of a supported SpGEMM pair. A format that no scheduler ranks is
// code that nothing runs.
func TestEveryFormatIsScheduled(t *testing.T) {
	b := sparse.NewBuilder(8, 6)
	for i := 0; i < 8; i++ {
		b.Add(i, i%6, 1)
		b.Add(i, (i+3)%6, 2)
	}
	f := dataset.Extract(b.MustBuild(sparse.CSR))
	ranked := map[sparse.Format]bool{}
	for _, e := range AppendCandidateEstimates(nil, EstimateCosts(f), columnCost(f.M, float64(f.NNZ)), true) {
		ranked[e.Candidate.Format] = true
	}
	for _, c := range spgemm.AppendCandidates(nil) {
		ranked[c.AFormat] = true
		ranked[c.BFormat] = true
	}
	for _, f := range sparse.AllFormats {
		if !ranked[f] {
			t.Errorf("%v is in sparse.AllFormats but no scheduler ranks a candidate of it", f)
		}
	}
}
