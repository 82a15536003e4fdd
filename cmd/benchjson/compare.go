package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadDoc(path string) (Document, error) {
	var doc Document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("%s: no benchmarks", path)
	}
	return doc, nil
}

// noiseRow is one matched benchmark in the diff: the old timing,
// the best (min) new timing across repeated runs, the run-to-run dispersion,
// and the tolerance the ratio was actually held to.
type noiseRow struct {
	Name       string
	OldNs      float64
	NewMinNs   float64
	Dispersion float64 // (max-min)/min across the new runs
	Ratio      float64 // NewMinNs / OldNs
	Allowed    float64 // tolerance * (1 + Dispersion)
	Regres     bool
}

// compareNoise matches benchmarks between old and N repeated new runs. The
// new timing is the MIN across runs — the least-interfered-with measurement
// a shared CI host produced — and the allowed growth widens by the measured
// run-to-run dispersion: a benchmark whose own repeats disagree by 40%
// cannot be held to a 30% regression bound. Only benchmarks present in old
// and every new run are compared.
func compareNoise(old []Benchmark, runs [][]Benchmark, tolerance float64) []noiseRow {
	prev := make(map[string]Benchmark, len(old))
	for _, b := range old {
		prev[b.Name] = b
	}
	var rows []noiseRow
	for _, b := range runs[0] {
		o, ok := prev[b.Name]
		if !ok || o.NsPerOp <= 0 {
			continue
		}
		min, max, inAll := b.NsPerOp, b.NsPerOp, true
		for _, run := range runs[1:] {
			found := false
			for _, nb := range run {
				if nb.Name == b.Name {
					found = true
					if nb.NsPerOp < min {
						min = nb.NsPerOp
					}
					if nb.NsPerOp > max {
						max = nb.NsPerOp
					}
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if !inAll || min <= 0 {
			continue
		}
		r := noiseRow{
			Name:       b.Name,
			OldNs:      o.NsPerOp,
			NewMinNs:   min,
			Dispersion: (max - min) / min,
			Ratio:      min / o.NsPerOp,
		}
		r.Allowed = tolerance * (1 + r.Dispersion)
		r.Regres = r.Ratio > r.Allowed
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Ratio/rows[i].Allowed > rows[j].Ratio/rows[j].Allowed })
	return rows
}

// compareCmd diffs a baseline document against N >= 2 repeated runs of the
// same suite and reports how many benchmarks regressed beyond their
// noise-widened bound (main exits 1 on any). Machine differences make
// absolute ns/op incomparable across hosts, so the tolerance is a ratio,
// and the repeated runs let the gate calibrate itself to the host's
// measured jitter — which is what lets CI run it as a hard step.
func compareCmd(args []string, w io.Writer) (regressions int, err error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(w)
	tolerance := fs.Float64("tolerance", 1.30, "ns/op growth ratio above which a benchmark counts as regressed, before widening by its measured run-to-run dispersion")
	fs.Usage = func() {
		fmt.Fprintln(w, "usage: benchjson compare [-tolerance 1.30] BASE.json RUN1.json RUN2.json [RUN3.json ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *tolerance <= 0 {
		return 0, fmt.Errorf("-tolerance must be positive, got %g", *tolerance)
	}
	if fs.NArg() < 3 {
		fs.Usage()
		return 0, fmt.Errorf("give BASE.json plus at least 2 repeated runs, got %d args", fs.NArg())
	}
	oldDoc, err := loadDoc(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	runs := make([][]Benchmark, 0, fs.NArg()-1)
	for _, path := range fs.Args()[1:] {
		doc, err := loadDoc(path)
		if err != nil {
			return 0, err
		}
		runs = append(runs, doc.Benchmarks)
	}
	rows := compareNoise(oldDoc.Benchmarks, runs, *tolerance)
	if len(rows) == 0 {
		return 0, fmt.Errorf("no benchmarks common to %s and all %d runs", fs.Arg(0), len(runs))
	}
	for _, r := range rows {
		mark := " "
		if r.Regres {
			mark = "!"
			regressions++
		}
		fmt.Fprintf(w, "%s %-60s %12.1f -> %12.1f ns/op  %.3fx (allowed %.3fx, dispersion %.0f%%)\n",
			mark, r.Name, r.OldNs, r.NewMinNs, r.Ratio, r.Allowed, r.Dispersion*100)
	}
	fmt.Fprintf(w, "%d/%d benchmarks regressed beyond their noise-widened bound (base tolerance %.2fx, %d runs)\n",
		regressions, len(rows), *tolerance, len(runs))
	return regressions, nil
}
