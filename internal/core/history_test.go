package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestHistoryRecordLookup(t *testing.T) {
	h := &History{}
	fa := featuresOf(t, "adult")
	if _, ok := h.Lookup(fa, DefaultHistoryRadius); ok {
		t.Fatal("empty history returned a hit")
	}
	h.RecordCandidate(fa, sparse.BaseCandidate(sparse.ELL))
	got, ok := h.Lookup(fa, DefaultHistoryRadius)
	if !ok || got != sparse.BaseCandidate(sparse.ELL) {
		t.Fatalf("exact lookup: %v %v", got, ok)
	}
	// A structurally different dataset must miss.
	ft := featuresOf(t, "trefethen")
	if _, ok := h.Lookup(ft, DefaultHistoryRadius); ok {
		t.Fatal("trefethen matched an adult record")
	}
	if h.Len() != 1 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestHistoryReusesAcrossSeeds(t *testing.T) {
	// The same dataset generated with a different seed has nearly
	// identical Table IV parameters and must reuse the recorded format.
	d, err := dataset.ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	f1 := dataset.Extract(d.MustGenerate(1).MustBuild(sparse.CSR))
	f2 := dataset.Extract(d.MustGenerate(99).MustBuild(sparse.CSR))
	h := &History{}
	h.RecordCandidate(f1, sparse.BaseCandidate(sparse.CSR))
	got, ok := h.Lookup(f2, DefaultHistoryRadius)
	if !ok || got != sparse.BaseCandidate(sparse.CSR) {
		t.Fatalf("seed-variant lookup failed: %v %v", got, ok)
	}
}

func TestHistorySaveLoadRoundTrip(t *testing.T) {
	h := &History{}
	h.RecordCandidate(featuresOf(t, "adult"), sparse.BaseCandidate(sparse.ELL))
	h.RecordCandidate(featuresOf(t, "trefethen"), sparse.BaseCandidate(sparse.DIA))
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries", loaded.Len())
	}
	got, ok := loaded.Lookup(featuresOf(t, "trefethen"), DefaultHistoryRadius)
	if !ok || got != sparse.BaseCandidate(sparse.DIA) {
		t.Fatalf("loaded lookup: %v %v", got, ok)
	}
}

// TestHistoryConcurrentRecordLookup hammers one History from recording,
// looking-up, saving, and length-polling goroutines at once; under -race it
// verifies the mutex covers every access path.
func TestHistoryConcurrentRecordLookup(t *testing.T) {
	h := &History{}
	fa := featuresOf(t, "adult")
	ft := featuresOf(t, "trefethen")
	formats := []sparse.Format{sparse.CSR, sparse.ELL, sparse.COO}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := fa
				if (g+i)%2 == 0 {
					f = ft
				}
				h.RecordCandidate(f, sparse.BaseCandidate(formats[(g+i)%len(formats)]))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := fa
				if (g+i)%2 == 0 {
					f = ft
				}
				if got, ok := h.Lookup(f, DefaultHistoryRadius); ok {
					found := false
					for _, want := range formats {
						found = found || got == sparse.BaseCandidate(want)
					}
					if !found {
						t.Errorf("lookup returned unrecorded format %v", got)
					}
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = h.Len()
				if err := h.Save(io.Discard); err != nil {
					t.Errorf("save: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if h.Len() != 4*50 {
		t.Fatalf("len = %d, want %d", h.Len(), 4*50)
	}
	// The memory must still round-trip cleanly after concurrent growth.
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != h.Len() {
		t.Fatalf("round trip lost entries: %d != %d", loaded.Len(), h.Len())
	}
}

func TestLoadHistoryErrors(t *testing.T) {
	cases := map[string]string{
		"short line":  "1 2 3\n",
		"bad float":   "a 0 0 0 0 0 0 CSR\n",
		"bad format":  "0 0 0 0 0 0 0 XYZ\n",
		"extra field": "0 0 0 0 0 0 0 CSR extra\n",
	}
	for name, in := range cases {
		if _, err := loadHistory(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted: %q", name, in)
		}
	}
	// Blank lines are fine.
	if h, err := loadHistory(strings.NewReader("\n\n")); err != nil || h.Len() != 0 {
		t.Fatalf("blank input: %v %v", h, err)
	}
}

// TestLoadHistoryFile covers the file loader both workloads share: an empty
// path and a missing file are empty histories, and a corrupt file fails
// with its path in the error, as a corrupt model file does.
func TestLoadHistoryFile(t *testing.T) {
	dir := t.TempDir()
	if h, err := LoadHistory[History](""); err != nil || h.Len() != 0 {
		t.Fatalf("empty path: %v, %v", h, err)
	}
	if h, err := LoadHistory[PairHistory](filepath.Join(dir, "absent")); err != nil || h.Len() != 0 {
		t.Fatalf("missing file: %v, %v", h, err)
	}
	bad := filepath.Join(dir, "bad.hist")
	if err := os.WriteFile(bad, []byte("#layoutsched-history v2\n1 2 3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory[History](bad); err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Errorf("corrupt history error %v does not name %s", err, bad)
	}
	if _, err := LoadHistory[PairHistory](bad); err == nil || !strings.HasPrefix(err.Error(), bad+": ") {
		t.Errorf("foreign pair history error %v does not name %s", err, bad)
	}
}

func TestSchedulerReusesHistory(t *testing.T) {
	d, err := dataset.ByName("aloi")
	if err != nil {
		t.Fatal(err)
	}
	h := &History{}
	sched := New(Config{Policy: Empirical, History: h, Seed: 3})
	first, err := sched.Choose(d.MustGenerate(1))
	if err != nil {
		t.Fatal(err)
	}
	if first.Rung == RungHistory {
		t.Fatal("first decision cannot be a reuse")
	}
	if h.Len() != 1 {
		t.Fatalf("history length %d after first decision", h.Len())
	}
	second, err := sched.Choose(d.MustGenerate(2))
	if err != nil {
		t.Fatal(err)
	}
	if second.Rung != RungHistory {
		t.Fatal("second decision on a near-identical dataset did not reuse")
	}
	if second.Chosen != first.Chosen {
		t.Fatalf("reuse changed format: %v vs %v", second.Chosen, first.Chosen)
	}
	if len(second.Measured) != 0 {
		t.Fatal("reused decision still measured")
	}
	if second.Matrix == nil || second.Matrix.Format() != second.Chosen {
		t.Fatal("reused decision not materialized")
	}
}

func TestSchedulerHistoryMissMeasures(t *testing.T) {
	h := &History{}
	sched := New(Config{Policy: Empirical, History: h, Seed: 4})
	a, err := dataset.ByName("adult")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dataset.ByName("trefethen")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Choose(a.MustGenerate(1)); err != nil {
		t.Fatal(err)
	}
	dec, err := sched.Choose(tr.MustGenerate(1))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rung == RungHistory {
		t.Fatal("structurally different dataset reused a decision")
	}
	if h.Len() != 2 {
		t.Fatalf("history length %d, want 2", h.Len())
	}
}

// loadHistory and loadPairHistory read a history file's contents from r, as
// LoadHistory does from a path.
func loadHistory(r io.Reader) (*History, error) {
	h := &History{}
	if err := h.decode(r); err != nil {
		return nil, err
	}
	return h, nil
}

func loadPairHistory(r io.Reader) (*PairHistory, error) {
	h := &PairHistory{}
	if err := h.decode(r); err != nil {
		return nil, err
	}
	return h, nil
}
