// Command benchjson converts `go test -bench -benchmem` text output (read
// from stdin) into a schema-stable JSON document, so benchmark trajectories
// can be committed, diffed, and gated across PRs without scraping free-form
// test output. The schema is frozen as layoutsched-bench/v1: adding fields
// is allowed, renaming or removing them is not.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH.json
//	... | benchjson -baseline BENCH_prev.json -out BENCH.json
//
// With -baseline, the previous document's benchmarks are embedded under
// "baseline" so one file carries the before/after pair.
//
// The compare subcommand diffs a baseline document against two or more
// repeated runs of the same suite and exits non-zero when any benchmark's
// best (min) ns/op grew beyond the -tolerance ratio widened by that
// benchmark's measured run-to-run dispersion:
//
//	benchjson compare -tolerance 2.0 BENCH_6.json run1.json run2.json run3.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Schema identifies the document layout; bump only on breaking changes.
const Schema = "layoutsched-bench/v1"

// Benchmark is one parsed result line. Bytes and allocs are present (zero
// included) whenever the run used -benchmem; HasMem records that, so a zero
// is distinguishable from "not measured".
type Benchmark struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	HasMem      bool    `json:"has_mem"`
}

// Document is the emitted file.
type Document struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Baseline holds the benchmarks of the -baseline document, when given:
	// the "before" numbers this run is compared against.
	Baseline []Benchmark `json:"baseline,omitempty"`
}

// benchLine matches one result row:
//
//	BenchmarkName/sub-8   123   456.7 ns/op   89 B/op   1 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(\s+[0-9.]+ MB/s)?(\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func parse(lines *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(lines.Text()))
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		if m[3] != "" {
			b.Procs, _ = strconv.Atoi(m[3])
		}
		b.Iterations, _ = strconv.ParseInt(m[4], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[5], 64)
		if m[7] != "" {
			b.HasMem = true
			b.BytesPerOp, _ = strconv.ParseInt(m[8], 10, 64)
			b.AllocsPerOp, _ = strconv.ParseInt(m[9], 10, 64)
		}
		out = append(out, b)
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench` output in)")
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		regressions, err := compareCmd(os.Args[2:], os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "previous benchjson document to embed under \"baseline\"")
	flag.Parse()

	benches, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	doc := Document{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benches,
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev Document
		if err := json.Unmarshal(raw, &prev); err != nil {
			fatal(fmt.Errorf("%s: %w", *baseline, err))
		}
		if prev.Schema != Schema {
			fatal(fmt.Errorf("%s: schema %q, want %q", *baseline, prev.Schema, Schema))
		}
		doc.Baseline = prev.Benchmarks
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
