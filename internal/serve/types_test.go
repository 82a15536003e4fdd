package serve

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestFeaturesJSONRoundTrip(t *testing.T) {
	f := dataset.Features{M: 10, N: 20, NNZ: 30, Ndig: 4, Dnnz: 7.5,
		Mdim: 6, Adim: 3, Vdim: 1.25, Density: 0.15}
	if got := NewFeaturesJSON(f).Features(); got != f {
		t.Fatalf("round trip: %+v != %+v", got, f)
	}
}

func TestNewDecisionJSON(t *testing.T) {
	b := sparse.NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 1)
	}
	sched := core.New(core.Config{Policy: core.Hybrid, TopK: 2})
	dec, err := sched.Choose(b)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecisionJSON(dec)
	if d.Policy != "hybrid" || d.Source != "measured" {
		t.Fatalf("decision %+v", d)
	}
	if d.Chosen != dec.Chosen.String() {
		t.Fatalf("chosen %s != %v", d.Chosen, dec.Chosen)
	}
	if len(d.Estimates) != len(dec.Estimates) || len(d.Measured) != len(dec.Measured) {
		t.Fatalf("lengths: %d estimates, %d measured", len(d.Estimates), len(d.Measured))
	}
	// Measured block is sorted ascending, so the winner leads.
	for i := 1; i < len(d.Measured); i++ {
		if d.Measured[i].Nanos < d.Measured[i-1].Nanos {
			t.Fatalf("measured not sorted: %+v", d.Measured)
		}
	}
	if d.Measured[0].Format != d.Chosen {
		t.Fatalf("winner %s not first in measured %+v", d.Chosen, d.Measured)
	}
	// The encoding must be valid JSON with snake_case keys.
	raw, err := json.Marshal(ScheduleResponse{Decision: d})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if _, ok := back["decision"].(map[string]any)["features"]; !ok {
		t.Fatalf("missing features key: %s", raw)
	}
}

func TestEncodeMeasuredTieBreak(t *testing.T) {
	m := map[sparse.Candidate]time.Duration{
		sparse.BaseCandidate(sparse.COO): 5 * time.Millisecond,
		sparse.BaseCandidate(sparse.CSR): 5 * time.Millisecond,
		sparse.BaseCandidate(sparse.ELL): time.Millisecond,
	}
	out := encodeMeasured[sparse.Candidate, MeasurementJSON](m)
	if out[0].Format != "ELL" {
		t.Fatalf("fastest not first: %+v", out)
	}
	// Equal times break by name for deterministic output.
	if out[1].Format != "COO" || out[2].Format != "CSR" {
		t.Fatalf("tie-break unstable: %+v", out)
	}
	if out[0].Millis != 1 {
		t.Fatalf("millis %v", out[0].Millis)
	}
	if encodeMeasured[sparse.Candidate, MeasurementJSON](nil) != nil {
		t.Fatal("empty map should encode as nil")
	}
}
