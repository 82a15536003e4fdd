// Package spgemm implements sparse×sparse matrix multiply (SpGEMM) as the
// repository's second scheduled workload. Where the SMSV path chooses a
// storage format for one matrix, SpGEMM chooses a *dataflow* — the loop
// order of the triple product — jointly with the storage formats of both
// operands, because each dataflow only has its natural access pattern in
// specific format pairs (Misam, PAPERS.md):
//
//   - row-wise Gustavson: C(i,:) = Σ_k A(i,k)·B(k,:) — row access to A and
//     B, a sparse accumulator per output row;
//   - outer product: C += A(:,k) ⊗ B(k,:) — column access to A, row access
//     to B, a merge of rank-1 contributions;
//   - inner product: C(i,j) = ⟨A(i,:), B(:,j)⟩ — row access to A, column
//     access to B, a sorted-intersection dot per output cell.
//
// The decision problem is the same shape as the paper's SMSV format choice,
// so the kernels here slot into the existing measure→History→predict
// machinery via spgemm.Candidate.
package spgemm

import (
	"fmt"
	"strings"

	"repro/internal/sparse"
)

// Dataflow identifies the SpGEMM loop order.
type Dataflow int

const (
	// Gustavson is the row-wise dataflow (CSR-like row access to both operands).
	Gustavson Dataflow = iota
	// OuterProduct accumulates rank-1 column⊗row contributions.
	OuterProduct
	// InnerProduct computes each output cell as a sparse dot product.
	InnerProduct

	numDataflows = 3
)

// String returns the lowercase dataflow name used in candidate encodings.
func (d Dataflow) String() string {
	switch d {
	case Gustavson:
		return "gustavson"
	case OuterProduct:
		return "outer"
	case InnerProduct:
		return "inner"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// ParseDataflow converts a dataflow name back to a Dataflow.
func ParseDataflow(s string) (Dataflow, error) {
	for d := Dataflow(0); d < numDataflows; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("spgemm: unknown dataflow %q", s)
}

// Candidate is one point in the SpGEMM decision space: a dataflow plus the
// storage formats of both operands. Like sparse.Candidate's, its Index is
// an in-memory index; histories and trained models persist its name.
type Candidate struct {
	Dataflow Dataflow
	AFormat  sparse.Format
	BFormat  sparse.Format
}

// NumCandidates is the size of the dense Index space (most points are not
// Supported; AppendCandidates enumerates the real ones).
const NumCandidates = numDataflows * len(sparse.AllFormats) * len(sparse.AllFormats)

// Index returns the dense encoding of the candidate.
func (c Candidate) Index() int {
	return int(c.Dataflow)*len(sparse.AllFormats)*len(sparse.AllFormats) +
		int(c.AFormat)*len(sparse.AllFormats) + int(c.BFormat)
}

// CandidateAt is the inverse of Index.
func CandidateAt(i int) Candidate {
	nf := len(sparse.AllFormats)
	return Candidate{
		Dataflow: Dataflow(i / (nf * nf)),
		AFormat:  sparse.Format((i / nf) % nf),
		BFormat:  sparse.Format(i % nf),
	}
}

// Valid reports whether the fields are in range (not whether a kernel
// exists for the combination; see Supported).
func (c Candidate) Valid() bool {
	nf := sparse.Format(len(sparse.AllFormats))
	return c.Dataflow >= 0 && c.Dataflow < numDataflows &&
		c.AFormat >= 0 && c.AFormat < nf &&
		c.BFormat >= 0 && c.BFormat < nf
}

// String renders the candidate as "dataflow/AFORMAT/BFORMAT", e.g.
// "gustavson/CSR/CSR". The form is persisted in pair histories and models.
// An in-range candidate's comes from a table built once: a decision reply
// names several candidates, and a cache hit concatenated each afresh.
func (c Candidate) String() string {
	if c.Valid() {
		return candidateNames[c.Index()]
	}
	return c.name()
}

func (c Candidate) name() string {
	return c.Dataflow.String() + "/" + c.AFormat.String() + "/" + c.BFormat.String()
}

var candidateNames = func() (t [NumCandidates]string) {
	for i := range t {
		t[i] = CandidateAt(i).name()
	}
	return t
}()

// ParseCandidate parses the String form back into a Candidate.
func ParseCandidate(s string) (Candidate, error) {
	dataflow, rest, ok1 := strings.Cut(s, "/")
	a, b, ok2 := strings.Cut(rest, "/")
	if !ok1 || !ok2 || strings.Contains(b, "/") {
		return Candidate{}, fmt.Errorf("spgemm: malformed candidate %q", s)
	}
	d, err := ParseDataflow(dataflow)
	if err != nil {
		return Candidate{}, err
	}
	af, err := sparse.ParseFormat(a)
	if err != nil {
		return Candidate{}, fmt.Errorf("spgemm: candidate %q: %w", s, err)
	}
	bf, err := sparse.ParseFormat(b)
	if err != nil {
		return Candidate{}, fmt.Errorf("spgemm: candidate %q: %w", s, err)
	}
	return Candidate{Dataflow: d, AFormat: af, BFormat: bf}, nil
}

// BaseCandidate is the safe default: Gustavson over CSR×CSR works for any
// operand pair and is the classic general-purpose SpGEMM dataflow.
var BaseCandidate = Candidate{Dataflow: Gustavson, AFormat: sparse.CSR, BFormat: sparse.CSR}

// Supported reports whether a kernel exists for the combination. Each
// dataflow requires the operand format that matches its access pattern:
// Gustavson streams rows of A (CSR or ELL) against CSR rows of B; the
// outer product walks CSC columns of A against rows of B (CSR or ELL);
// the inner product intersects CSR rows of A with CSC columns of B.
func Supported(c Candidate) bool {
	switch c.Dataflow {
	case Gustavson:
		return (c.AFormat == sparse.CSR || c.AFormat == sparse.ELL) && c.BFormat == sparse.CSR
	case OuterProduct:
		return c.AFormat == sparse.CSC && (c.BFormat == sparse.CSR || c.BFormat == sparse.ELL)
	case InnerProduct:
		return c.AFormat == sparse.CSR && c.BFormat == sparse.CSC
	default:
		return false
	}
}

// AppendCandidates appends every supported candidate to dst in a fixed
// order (ascending Index) and returns the extended slice.
func AppendCandidates(dst []Candidate) []Candidate {
	for i := 0; i < NumCandidates; i++ {
		if c := CandidateAt(i); Supported(c) {
			dst = append(dst, c)
		}
	}
	return dst
}
