// Package sparse implements the five matrix storage formats the paper
// schedules between — DEN (dense), CSR, COO, ELL and DIA — plus the CSC and
// BCSR variants it mentions as derivable, with conversions between all of
// them, storage accounting matching the paper's Table II, and the
// sparse-matrix × sparse-vector (SMSV) kernels that dominate SMO-based SVM
// training.
//
// Each of the five formats' multiply kernels intentionally performs work
// proportional to its *stored* element count (padding included), because
// that proportionality — "the complexity of computation in SVM is
// proportional to the complexity of storage" — is the mechanism behind the
// paper's format-dependent performance gaps (Figures 1–4, Tables II–III).
// CSC is the exception, and it is scheduled too, as an extension: its
// column kernel reads only the columns in the sparse x's support, the
// outer-product dataflow of SMSV, and computes CSR's result bit for bit.
package sparse

import (
	"fmt"

	"repro/internal/exec"
)

// Format identifies one of the supported matrix storage formats.
type Format int

const (
	// DEN is row-major dense storage.
	DEN Format = iota
	// CSR is compressed sparse row storage.
	CSR
	// COO is coordinate (triplet) storage, kept row-sorted.
	COO
	// ELL is ELLPACK/ITPACK storage padded to the longest row.
	ELL
	// DIA is diagonal storage, one padded lane per nonzero diagonal.
	DIA
	// CSC is compressed sparse column storage (derived format, §III-A).
	CSC
	// BCSR is block compressed sparse row storage (derived format, §III-A).
	BCSR
)

// BasicFormats lists the five formats the paper's scheduler chooses among,
// in the order used by its figures and tables.
var BasicFormats = [5]Format{ELL, CSR, COO, DEN, DIA}

// AllFormats lists every format this package implements.
var AllFormats = [7]Format{DEN, CSR, COO, ELL, DIA, CSC, BCSR}

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case DEN:
		return "DEN"
	case CSR:
		return "CSR"
	case COO:
		return "COO"
	case ELL:
		return "ELL"
	case DIA:
		return "DIA"
	case CSC:
		return "CSC"
	case BCSR:
		return "BCSR"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a (case-sensitive) format name back to a Format.
func ParseFormat(s string) (Format, error) {
	for _, f := range AllFormats {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown format %q", s)
}

// Matrix is the interface satisfied by every storage format. A Matrix is
// immutable after construction; concurrent reads are safe.
type Matrix interface {
	// Dims returns the number of rows and columns.
	Dims() (rows, cols int)
	// NNZ returns the number of logically nonzero elements.
	NNZ() int
	// Format identifies the storage format.
	Format() Format
	// RowTo appends row i of the matrix to dst as (index, value) pairs in
	// ascending column order, skipping stored zeros, and returns the
	// extended vector. It is the allocation-free way to stream rows.
	RowTo(dst Vector, i int) Vector
	// MulVecSparse computes dst = A·x for a sparse vector x whose dense
	// image has been scattered into scratch (len == cols). dst must have
	// len == rows. ex supplies workers, schedule, and optional counters; a
	// nil ex runs the kernel serially. The kernel touches every *stored*
	// element of A, except CSC's, which touches the columns of x's support.
	MulVecSparse(dst []float64, x Vector, scratch []float64, ex *exec.Exec)
	// StoredElements returns how many scalar/index slots the format keeps,
	// in the units of the paper's Table II (padding included).
	StoredElements() int64
	// StorageBytes returns the in-memory footprint of the format's arrays.
	StorageBytes() int64
}
