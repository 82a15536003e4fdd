package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkServeBatch     	 3642127	       334.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeBatchHTTP-8 	     724	   1844667 ns/op	 1126872 B/op	    4292 allocs/op
BenchmarkNoMem/sub=1 	     100	   12345 ns/op
PASS
ok  	repro/internal/serve	3.077s
`

func TestParseBenchLines(t *testing.T) {
	got, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(got), got)
	}
	b0 := got[0]
	if b0.Name != "BenchmarkServeBatch" || b0.Iterations != 3642127 ||
		b0.NsPerOp != 334.6 || !b0.HasMem || b0.BytesPerOp != 0 || b0.AllocsPerOp != 0 {
		t.Fatalf("first row: %+v", b0)
	}
	b1 := got[1]
	if b1.Name != "BenchmarkServeBatchHTTP" || b1.Procs != 8 ||
		b1.BytesPerOp != 1126872 || b1.AllocsPerOp != 4292 {
		t.Fatalf("second row: %+v", b1)
	}
	// A -benchmem-less row keeps its timing but marks memory as absent.
	b2 := got[2]
	if b2.Name != "BenchmarkNoMem/sub=1" || b2.HasMem || b2.NsPerOp != 12345 {
		t.Fatalf("third row: %+v", b2)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\nok\n"))); err == nil {
		t.Fatal("no benchmark lines should be an error")
	}
}

func writeBenchDoc(t *testing.T, dir, name string, benches []Benchmark) string {
	t.Helper()
	doc := Document{Schema: Schema, Benchmarks: benches}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareNoise(t *testing.T) {
	old := []Benchmark{
		{Name: "BenchmarkSteady", NsPerOp: 100},
		{Name: "BenchmarkJittery", NsPerOp: 100},
		{Name: "BenchmarkRegressed", NsPerOp: 100},
	}
	// Three repeated runs: Steady barely moves, Jittery swings 50% between
	// runs, Regressed is consistently 2x slower.
	runs := [][]Benchmark{
		{{Name: "BenchmarkSteady", NsPerOp: 108}, {Name: "BenchmarkJittery", NsPerOp: 150}, {Name: "BenchmarkRegressed", NsPerOp: 210}},
		{{Name: "BenchmarkSteady", NsPerOp: 104}, {Name: "BenchmarkJittery", NsPerOp: 100}, {Name: "BenchmarkRegressed", NsPerOp: 205}},
		{{Name: "BenchmarkSteady", NsPerOp: 106}, {Name: "BenchmarkJittery", NsPerOp: 140}, {Name: "BenchmarkRegressed", NsPerOp: 200}},
	}
	rows := compareNoise(old, runs, 1.30)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3: %+v", len(rows), rows)
	}
	byName := map[string]noiseRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Steady: min 104, ratio 1.04, dispersion (108-104)/104 ~ 3.8% — clean.
	if r := byName["BenchmarkSteady"]; r.Regres || r.NewMinNs != 104 {
		t.Fatalf("steady flagged or wrong min: %+v", r)
	}
	// Jittery: min 100, ratio 1.00. Even though one run hit 150, the min
	// says the code itself did not slow down — and the 50% dispersion
	// widens its bound to 1.30*(1.5) = 1.95 regardless.
	if r := byName["BenchmarkJittery"]; r.Regres {
		t.Fatalf("jittery run-to-run noise flagged as a regression: %+v", r)
	} else if r.Dispersion < 0.49 || r.Dispersion > 0.51 {
		t.Fatalf("jittery dispersion %.3f, want ~0.50", r.Dispersion)
	}
	// Regressed: min 200 = 2.00x, dispersion (210-200)/200 = 5% widens the
	// bound only to 1.365x — still flagged.
	if r := byName["BenchmarkRegressed"]; !r.Regres || r.Ratio != 2.0 {
		t.Fatalf("true regression not flagged: %+v", r)
	}
	// The worst offender (largest ratio/allowed) sorts first.
	if rows[0].Name != "BenchmarkRegressed" {
		t.Fatalf("rows[0] = %s, want BenchmarkRegressed", rows[0].Name)
	}
}

func TestCompareCmd(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBenchDoc(t, dir, "old.json", []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 100},
	})
	run1 := writeBenchDoc(t, dir, "run1.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 250}, {Name: "BenchmarkB", NsPerOp: 101}})
	run2 := writeBenchDoc(t, dir, "run2.json", []Benchmark{{Name: "BenchmarkA", NsPerOp: 240}, {Name: "BenchmarkB", NsPerOp: 99}})

	var out strings.Builder
	regressions, err := compareCmd([]string{"-tolerance", "1.30", oldPath, run1, run2}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "! BenchmarkA") || strings.Contains(out.String(), "! BenchmarkB") {
		t.Fatalf("report does not flag exactly BenchmarkA:\n%s", out.String())
	}

	// A looser tolerance absorbs the same delta.
	out.Reset()
	regressions, err = compareCmd([]string{"-tolerance", "4", oldPath, run1, run2}, &out)
	if err != nil || regressions != 0 {
		t.Fatalf("loose tolerance: regressions %d err %v", regressions, err)
	}

	// Error paths: a single run (not enough to measure noise), bad
	// tolerance, disjoint and corrupt documents.
	if _, err := compareCmd([]string{oldPath, run1}, &out); err == nil {
		t.Fatal("one run accepted")
	}
	if _, err := compareCmd([]string{"-tolerance", "-1", oldPath, run1, run2}, &out); err == nil {
		t.Fatal("negative tolerance accepted")
	}
	disjoint := writeBenchDoc(t, dir, "disjoint.json", []Benchmark{{Name: "BenchmarkZ", NsPerOp: 5}})
	if _, err := compareCmd([]string{oldPath, disjoint, disjoint}, &out); err == nil {
		t.Fatal("disjoint documents accepted")
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareCmd([]string{oldPath, run1, corrupt}, &out); err == nil {
		t.Fatal("corrupt document accepted")
	}
}
