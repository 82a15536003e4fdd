// Package online closes the measure→train→predict flywheel at runtime.
//
// The offline flow (PR 3/PR 8) trains a forest from a history file and
// freezes it at daemon boot; drift between the training corpus and live
// traffic then erodes hit-rate silently. This package keeps the loop
// turning while the daemon serves:
//
//	harvest  — serve's decide paths feed every non-degraded *measured*
//	           decision (SMSV joint candidates and SpGEMM pairs) into a
//	           bounded Store as measurement-labeled Records;
//	retrain  — a Controller periodically fits a candidate forest from the
//	           harvested window (per workload lane);
//	shadow   — the candidate model is replayed against the measured oracle
//	           on recent traffic (hit-rate / regret vs the live model);
//	promote  — only a candidate that beats the live model by a configured
//	           hit-rate margin is hot-swapped in (through serve's
//	           predictorSwap), and the swap is watched: if post-swap mean
//	           regret on fresh traffic regresses past a threshold the
//	           previous model is rolled back automatically.
//
// Everything is deterministic under an injected clock: the Controller
// never sleeps, so every promotion/rollback transition is unit-testable
// without wall time.
package online

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// Kind discriminates which workload a harvested record belongs to. The
// values are the workload descriptors' kinds (learn.Workload.Kind), which
// model pushes and the pair model file carry too; they are persisted in
// the store's save format and must not change, and a record can never be
// replayed against the wrong workload's parser.
type Kind string

var (
	// KindSMSV labels records harvested from /v1/schedule decisions:
	// joint sparse.Candidate labels over single-matrix features.
	KindSMSV = Kind(learn.SMSV.Kind)
	// KindPair labels records harvested from /v1/schedule/spgemm
	// decisions: spgemm.Candidate labels over an (A, B) operand pair.
	KindPair = Kind(learn.SpGEMM.Kind)
)

// Valid reports whether k is a known workload discriminator.
func (k Kind) Valid() bool { return k == KindSMSV || k == KindPair }

// Record is one measurement-labeled decision harvested from live
// traffic: the features the decision was made from, the candidate that
// measured fastest (the oracle label), and the per-candidate measured
// times in nanoseconds. Times is the shadow evaluator's ground truth —
// regret of any prediction is its measured time over the best measured
// time.
type Record struct {
	Kind  Kind             `json:"kind"`
	Seq   uint64           `json:"seq"` // store-assigned, monotonic per store
	At    int64            `json:"at"`  // harvest time, Unix nanoseconds
	F     dataset.Features `json:"f"`   // SMSV matrix, or SpGEMM operand A
	FB    dataset.Features `json:"fb"`  // SpGEMM operand B; zero for KindSMSV
	Label string           `json:"label"`
	Times map[string]int64 `json:"times"` // candidate string -> measured ns
}

// parseLabel routes a candidate string through the kind's own parser.
// Cross-workload strings fail naturally: "gustavson/CSR/CSR" is not a
// sparse format, "CSR/guided/fused" is not a dataflow.
func parseLabel(kind Kind, s string) error {
	switch kind {
	case KindSMSV:
		if _, err := sparse.ParseCandidate(s); err != nil {
			return err
		}
	case KindPair:
		c, err := spgemm.ParseCandidate(s)
		if err != nil {
			return err
		}
		if !spgemm.Supported(c) {
			return fmt.Errorf("online: unsupported pair candidate %q", s)
		}
	default:
		return fmt.Errorf("online: unknown record kind %q", kind)
	}
	return nil
}

func validFeatures(f dataset.Features) error {
	if f.M <= 0 || f.N <= 0 {
		return fmt.Errorf("online: degenerate features %dx%d", f.M, f.N)
	}
	if f.NNZ < 0 {
		return fmt.Errorf("online: negative nnz %d", f.NNZ)
	}
	return nil
}

// Validate checks structural invariants: a known kind, shape-consistent
// features, a label that parses under the kind's own candidate grammar,
// and a non-empty positive measurement map that (a) contains the label
// and (b) only names candidates of the same workload. A Record that
// fails Validate is rejected at harvest and at load, so a store never
// holds a cross-workload or unreplayable record.
func (r Record) Validate() error {
	if !r.Kind.Valid() {
		return fmt.Errorf("online: unknown record kind %q", r.Kind)
	}
	if err := validFeatures(r.F); err != nil {
		return err
	}
	if r.Kind == KindPair {
		if err := validFeatures(r.FB); err != nil {
			return fmt.Errorf("online: operand B: %w", err)
		}
		if r.F.N != r.FB.M {
			return fmt.Errorf("online: pair inner dims mismatch: A is %dx%d, B is %dx%d",
				r.F.M, r.F.N, r.FB.M, r.FB.N)
		}
	} else if r.FB != (dataset.Features{}) {
		return fmt.Errorf("online: smsv record carries operand-B features")
	}
	if r.Label == "" {
		return fmt.Errorf("online: record has no label")
	}
	if err := parseLabel(r.Kind, r.Label); err != nil {
		return fmt.Errorf("online: bad label: %w", err)
	}
	if len(r.Times) == 0 {
		return fmt.Errorf("online: record has no measurements")
	}
	if _, ok := r.Times[r.Label]; !ok {
		return fmt.Errorf("online: label %q missing from measurements", r.Label)
	}
	for cand, ns := range r.Times {
		if ns <= 0 {
			return fmt.Errorf("online: non-positive measurement %dns for %q", ns, cand)
		}
		if err := parseLabel(r.Kind, cand); err != nil {
			return fmt.Errorf("online: bad measured candidate: %w", err)
		}
	}
	return nil
}

// EncodeRecord renders r as a single-line JSON document, the store's
// persisted wire form. Only valid records encode.
func EncodeRecord(r Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// DecodeRecord parses and validates one wire-form record. Unknown fields
// are rejected so schema drift surfaces as an error, not silent data
// loss.
func DecodeRecord(data []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Record
	if err := dec.Decode(&r); err != nil {
		return Record{}, fmt.Errorf("online: decode record: %w", err)
	}
	// A second document on the line is corruption, not data.
	if dec.More() {
		return Record{}, fmt.Errorf("online: trailing data after record")
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// Clock is the controller's and store's time source, injectable so
// promotion/rollback state machines run deterministically in tests.
type Clock func() time.Time
