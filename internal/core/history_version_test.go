package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// testdata/history_v1.txt was produced by the pre-joint History.Save (one
// bare format name per line, no header). These tests pin the migration
// contract: v1 files load cleanly as base candidates, survive a
// save/reload round trip in the v2 wire form, and keep steering lookups.

func TestHistoryV1FixtureLoadsAndMigrates(t *testing.T) {
	raw, err := os.ReadFile("testdata/history_v1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(string(raw), "#") {
		t.Fatal("fixture is not the headerless v1 wire form")
	}
	h, err := loadHistory(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 history failed to load: %v", err)
	}
	if h.Len() != 5 {
		t.Fatalf("loaded %d entries, want 5", h.Len())
	}
	wantFormats := []sparse.Format{sparse.CSR, sparse.ELL, sparse.COO, sparse.DEN, sparse.DIA}
	snap := h.Snapshot()
	for i, e := range snap {
		// Every v1 entry migrates to the format's base candidate: static
		// chunks, base kernel — exactly the pre-joint execution behavior.
		if e.Candidate != sparse.BaseCandidate(wantFormats[i]) {
			t.Fatalf("entry %d migrated to %v, want %v base", i, e.Candidate, wantFormats[i])
		}
	}

	// Round trip: saving writes the v2 header and candidate wire form, and
	// the result reloads to the same entries.
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if first != historyFile.header {
		t.Fatalf("saved header %q, want %q", first, historyFile.header)
	}
	if !strings.Contains(buf.String(), "CSR/static/base") {
		t.Fatal("v2 save does not use candidate wire form")
	}
	reloaded, err := loadHistory(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 round trip failed: %v", err)
	}
	resnap := reloaded.Snapshot()
	if len(resnap) != len(snap) {
		t.Fatalf("round trip lost entries: %d vs %d", len(resnap), len(snap))
	}
	for i := range snap {
		if resnap[i] != snap[i] {
			t.Fatalf("entry %d changed across round trip: %+v vs %+v", i, resnap[i], snap[i])
		}
	}
}

func TestHistoryJointCandidateRoundTrip(t *testing.T) {
	h := &History{}
	fa := featuresOf(t, "adult")
	want := sparse.Candidate{Format: sparse.CSR, Chunk: sparse.ChunkGuided, Variant: sparse.VariantFused}
	h.RecordCandidate(fa, want)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded.Lookup(fa, DefaultHistoryRadius)
	if !ok || got != want {
		t.Fatalf("joint candidate round trip: %v %v, want %v", got, ok, want)
	}
}

func TestHistoryRejectsUnknownHeaderVersion(t *testing.T) {
	_, err := loadHistory(strings.NewReader("#layoutsched-history v99\n"))
	if err == nil || !strings.Contains(err.Error(), "unsupported header") {
		t.Fatalf("unknown version accepted: %v", err)
	}
}
