// Command benchmark is the repository's gated performance benchmark: four
// closed-loop workloads over an in-process layoutd (single node and a
// three-node ring) and the adaptive SVM path, measured end to end with the
// harness recording nothing, and again layer by layer with a traced run.
// BENCHMARK.json at the repository root names this program and its
// metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh                                  every workload, both runs, results.json
//	bash benchmark/run.sh --workload serve_hot --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh compare A.json B.json            apply the bounds to two result sets
//	bash benchmark/run.sh sweep                            open-loop rate sweep (informational)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "sweep":
			os.Exit(sweepMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// workloadResult is one workload's two runs inside a result set.
type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end,omitempty"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// resultSet is one pass over the workloads.
type resultSet struct {
	Seed      int64   `json:"seed"`
	LoadStart float64 `json:"load_avg_start"`
	LoadEnd   float64 `json:"load_avg_end"`
	// OthersCPU is the share of the machine's CPU time that processes other
	// than the benchmark used while the set was measured. The load average
	// cannot tell them apart: two clients and their servers hold it near
	// the core count of the 2-core reference box by themselves.
	OthersCPU float64                    `json:"others_cpu_share"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// maxOthersCPU is the share of the machine other processes may use during
// a set before it is marked noisy.
const maxOthersCPU = 0.05

// spreadStat summarises one metric over the repeated sets of a results
// file. Spread is the interquartile range as a share of the median, by the
// rule the driver applies to its own repeated runs.
type spreadStat struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Spread float64 `json:"spread"`
}

// results is the document written to <out>/results.json.
type results struct {
	Schema     int     `json:"schema"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	// Noisy marks a file with a set measured beside other work (OthersCPU
	// above maxOthersCPU): compare refuses to call a verdict on it.
	Noisy   bool                             `json:"noisy"`
	Claim   *string                          `json:"claim"` // this benchmark claims no gain
	Sets    []resultSet                      `json:"sets"`
	Summary map[string]map[string]spreadStat `json:"summary"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same decks and op sequences")
	seconds := fs.Float64("seconds", 0, "measured window per run; 0 takes run_seconds from BENCHMARK.json")
	trace := fs.String("trace", "both", "0: end-to-end metrics, harness tracing off; 1: per-layer metrics, tracing on; both")
	repeat := fs.Int("repeat", 1, "result sets to measure back to back (seed, seed+1, ...)")
	out := fs.String("out", "", "directory for results.json and <workload>.spans.json (default benchmark/out beside BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	var chosen []workload
	if *name == "all" {
		chosen = workloads
	} else if wl, ok := workloadByName(*name); ok {
		chosen = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want all or one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace %q, want 0, 1 or both\n", *trace)
		return 2
	}
	if *out == "" {
		*out = filepath.Join(root, "benchmark", "out")
	}

	doc := results{Schema: 1, Commit: commit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: *seconds}
	failed := false
	var last *runResult
	for r := 0; r < *repeat; r++ {
		set := resultSet{Seed: *seed + int64(r), LoadStart: loadAverage(), Workloads: map[string]*workloadResult{}}
		busy0, metered := machineBusy()
		own0, t0 := readUsage().cpu, time.Now()
		for _, wl := range chosen {
			wr := &workloadResult{}
			set.Workloads[wl.name] = wr
			if *trace != "1" {
				res, err := runUntraced(wl, set.Seed, *seconds, params{div: 1})
				if err == nil {
					err = checkNames(res.Metrics, sp.EndToEnd)
				}
				failed = report(wl.name, res, err) || failed
				wr.EndToEnd, last = res, res
			}
			if *trace != "0" {
				res, err := runTraced(wl, set.Seed, *seconds, params{div: 1}, filepath.Join(*out, wl.name+".spans.json"))
				if err == nil {
					err = checkNames(res.Metrics, sp.PerLayer)
				}
				failed = report(wl.name, res, err) || failed
				wr.PerLayer, last = res, res
			}
		}
		set.LoadEnd = loadAverage()
		if busy1, _ := machineBusy(); metered {
			others := (busy1 - busy0) - (readUsage().cpu - own0)
			set.OthersCPU = max(0, others.Seconds()/(time.Since(t0).Seconds()*float64(runtime.NumCPU())))
			doc.Noisy = doc.Noisy || set.OthersCPU > maxOthersCPU
		}
		doc.Sets = append(doc.Sets, set)
	}
	// The driver's protocol is one workload, one trace mode, one JSON object
	// as the last line. Every other invocation leaves a results file.
	if len(chosen) == 1 && *trace != "both" && *repeat == 1 {
		if last != nil {
			line := struct {
				Correct   bool                  `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]gateMetric `json:"metrics"`
			}{Correct: !failed && last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]gateMetric{}}
			for n, m := range last.Metrics {
				line.Metrics[n] = gateMetric{Value: m.Value, Unit: m.Unit}
			}
			raw, err := json.Marshal(line)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Println(string(raw))
		}
	} else {
		doc.Summary = summarise(&doc, sp)
		if err := writeJSON(filepath.Join(*out, "results.json"), doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

type gateMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one run as "workload metric value unit n" rows and says on
// standard error why a run does not count. It reports whether the run
// failed: an error, a violated guard, or any failed op.
func report(workload string, res *runResult, err error) bool {
	if res != nil {
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("%s %s %.6g %s %d\n", workload, n, m.Value, m.Unit, m.N)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "benchmark: %s: failed op: %s\n", workload, e)
		}
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", workload, err)
	case res.guard != nil:
		fmt.Fprintf(os.Stderr, "benchmark: %s: guard: %v\n", workload, res.guard)
	case res.Failed > 0:
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed\n", workload, res.Failed, res.Attempted)
	default:
		return false
	}
	return true
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// commit names the measured commit, or "unknown" outside a git checkout
// (the gate runs from an exported tree).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// summarise gives every end-to-end metric's min / median / max / spread
// over the sets, and prints them when there is more than one set: the
// run-to-run noise README.md records and compare reads.
func summarise(doc *results, sp *spec) map[string]map[string]spreadStat {
	out := map[string]map[string]spreadStat{}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			xs := doc.values(wl.Name, m.Name)
			if len(xs) == 0 {
				continue
			}
			if out[wl.Name] == nil {
				out[wl.Name] = map[string]spreadStat{}
			}
			med := median(xs) // sorts xs
			st := spreadStat{Min: xs[0], Median: med, Max: xs[len(xs)-1], Spread: spread(xs)}
			out[wl.Name][m.Name] = st
			if len(xs) > 1 {
				fmt.Printf("summary %s %s min %.6g median %.6g max %.6g %s spread %.4f of bound %.2f n %d\n",
					wl.Name, m.Name, st.Min, st.Median, st.Max, m.Unit, st.Spread, m.Bound, len(xs))
			}
		}
	}
	return out
}
