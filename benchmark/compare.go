package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// compare applies BENCHMARK.json's bounds to two result files, A the base
// and B the candidate: one row per (workload, end-to-end metric) with both
// medians and B/A. A pair is a regression when B is worse than A by more
// than the bound, and unresolved when the spread inside either file's own
// sets (interquartile range over median, the driver's rule) exceeds the
// bound, because then the bound cannot tell a change from noise. Exit
// status: 0 clean, 1 regression or unresolved, 2 unusable input (including
// a noisy file).

type verdict int

const (
	within verdict = iota
	regression
	unresolved
)

func (v verdict) String() string {
	return [...]string{"ok", "REGRESSION", "unresolved"}[v]
}

// values lists one metric's value in each set of a results file.
func (r *results) values(workload, metric string) []float64 {
	var xs []float64
	for _, s := range r.Sets {
		if wr := s.Workloads[workload]; wr != nil && wr.EndToEnd != nil {
			if m, ok := wr.EndToEnd.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// judge compares candidate median b against base median a for a metric
// whose smaller (or larger) values are better.
func judge(a, b float64, m specMetric, spreadA, spreadB float64) (ratio float64, v verdict) {
	ratio = b / a
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		return ratio, unresolved
	case worse > m.Bound:
		return ratio, regression
	}
	return ratio, within
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &r, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	sp, _, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: BENCHMARK.json:", err)
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	if a.Noisy || b.Noisy {
		fmt.Fprintln(os.Stderr, "compare: a result set was measured while other processes used the machine (noisy: true); re-measure on a quiet box")
		return 2
	}
	bad := 0
	fmt.Printf("%-11s %-16s %12s %12s %18s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			if m.Name == "setup_s" {
				// Like the driver: set-up time is judged on its medians alone.
				// It is three set-ups a run, and its spread says nothing
				// about the window's metrics.
				sa, sb = 0, 0
			}
			ratio, v := judge(ma, mb, m, sa, sb)
			if v != within {
				bad++
			}
			fmt.Printf("%-11s %-16s %12.5g %12.5g %8.4f of %-8.5g %6.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, ratio, ma, m.Bound*100, v)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "compare: %d pairs outside their bound or unresolved\n", bad)
		return 1
	}
	return 0
}
