// Command layoutsched analyzes a machine-learning dataset and recommends a
// storage format: it extracts the paper's nine Table IV influencing
// parameters, evaluates the rule-based cost model, optionally
// micro-benchmarks the candidate formats on the actual data, and prints the
// decision. The train and eval subcommands close the measure→train→predict
// flywheel: train fits a format predictor from measurement-labeled data,
// eval scores it against a held-out measured oracle.
//
// Usage:
//
//	layoutsched -file data.libsvm            # analyze a LIBSVM-format file
//	layoutsched -dataset mnist               # analyze a Table V clone
//	layoutsched -dataset sector -policy rule-based
//	layoutsched -dataset mnist -stats        # report kernel counters
//	layoutsched -dataset mnist -json         # machine-readable decision (layoutd wire format)
//	layoutsched -dataset mnist -trace        # decision span tree on stderr
//	layoutsched -dataset mnist -policy predict -predictor model.json
//
//	layoutsched train -synthetic 80 -out model.json
//	layoutsched train -history tuning.hist -data 'corpus/*.libsvm' -out model.json
//	layoutsched eval -model model.json -synthetic 40
//
// The spgemm subcommand family decides a dataflow × format pair for a
// sparse matrix product A×B instead of a storage format for one dataset:
//
//	layoutsched spgemm a.libsvm b.libsvm           # choose a SpGEMM dataflow
//	layoutsched spgemm -policy predict -predictor spgemm-model.json a.libsvm b.libsvm
//	layoutsched train-spgemm -synthetic 60 -out spgemm-model.json
//	layoutsched eval-spgemm -model spgemm-model.json -synthetic 40
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/learn"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

func main() {
	subcommands := map[string]func([]string) error{
		"train":        func(args []string) error { return trainCmd(&learn.SMSV, args) },
		"eval":         func(args []string) error { return evalCmd(&learn.SMSV, args) },
		"spgemm":       spgemmCmd,
		"train-spgemm": func(args []string) error { return trainCmd(&learn.SpGEMM, args) },
		"eval-spgemm":  func(args []string) error { return evalCmd(&learn.SpGEMM, args) },
	}
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
	}
	scheduleCmd()
}

// scheduleCmd is the default mode: decide a storage format for one dataset.
func scheduleCmd() {
	var (
		file      = flag.String("file", "", "LIBSVM-format dataset file")
		name      = flag.String("dataset", "", "Table V dataset clone name (adult, aloi, mnist, ...)")
		policy    = flag.String("policy", "hybrid", "decision policy: rule-based, empirical, hybrid, predict")
		workers   = flag.Int("workers", 0, "kernel workers (0 = all cores)")
		seed      = flag.Int64("seed", 1, "clone generation seed")
		histPath  = flag.String("history", "", "incremental-tuning history file: decisions are reused for similar datasets and new ones appended")
		predPath  = flag.String("predictor", "", "trained format-predictor file (required for -policy predict)")
		minConf   = flag.Float64("min-confidence", 0, "predictor confidence below which the decision falls back to measurement (0 = default)")
		verbose   = flag.Bool("verbose", false, "print the row-length histogram and densest diagonals")
		statsFlag = flag.Bool("stats", false, "report per-format kernel invocation counters after the decision")
		jsonOut   = flag.Bool("json", false, "emit the decision as machine-readable JSON (the layoutd wire format) instead of tables")
		traceOut  = flag.Bool("trace", false, "print the decision's span tree to stderr (with -json, also the trace JSON)")
		faults    = flag.String("faults", "", "failpoint spec for chaos runs, e.g. 'core.measure.delay=10ms@0.5;core.build.err=1:2'")
		faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic failpoints")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	if *faults != "" {
		reg, err := fault.Parse(*faults, *faultSeed)
		if err != nil {
			fatal(err)
		}
		fault.Enable(reg)
		logger.Warn("fault injection armed", "spec", fmt.Sprint(reg))
	}

	b, err := loadMatrix(*file, *name, *seed)
	if err != nil {
		fatal(err)
	}
	p, err := core.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	var hist *core.History
	if *histPath != "" {
		hist, err = learn.SMSV.LoadHistory(*histPath)
		if err != nil {
			fatal(err)
		}
	}
	cfg := core.Config{Policy: p, Seed: *seed, History: hist, MinConfidence: *minConf}
	if *predPath != "" {
		forest, err := learn.SMSV.LoadModelFile(*predPath)
		if err != nil {
			fatal(err)
		}
		cfg.Predictor = forest
	} else if p == core.PolicyPredict {
		fatal(fmt.Errorf("policy predict needs -predictor"))
	}
	ex := exec.New(*workers, exec.Static)
	defer ex.Close()
	var counters *exec.Stats
	if *statsFlag {
		counters = &exec.Stats{}
		ex = ex.WithStats(counters)
	}
	cfg.Exec = ex
	sched := core.New(cfg)
	ctx := context.Background()
	var tr *telemetry.Trace
	var root telemetry.Span
	if *traceOut {
		ctx, tr, root = telemetry.NewTrace(ctx, "layoutsched.schedule",
			telemetry.String("policy", *policy))
	}
	dec, err := sched.ChooseContext(ctx, b)
	if tr != nil {
		root.EndErr(err)
		tr.Finish()
		fmt.Fprint(os.Stderr, tr.Tree())
		if *jsonOut {
			if encErr := json.NewEncoder(os.Stderr).Encode(tr.Snapshot()); encErr != nil {
				fatal(encErr)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	if hist != nil {
		if err := hist.SaveFile(*histPath); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		dj := serve.NewDecisionJSON(dec)
		if tr != nil {
			dj.TraceID = tr.ID
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dj); err != nil {
			fatal(err)
		}
		return
	}
	if hist != nil && dec.Rung == core.RungHistory {
		fmt.Println("(decision reused from tuning history)")
	}
	if dec.Rung == core.RungPredictor {
		fmt.Printf("(decision predicted by the trained model, confidence %.2f — no measurement)\n", dec.Confidence)
	} else if p == core.PolicyPredict {
		fmt.Printf("(predictor confidence %.2f below threshold: measured instead)\n", dec.Confidence)
	}

	fmt.Println("Influencing parameters (Table IV):")
	fmt.Printf("  %v\n\n", dec.Features)
	if *verbose {
		fmt.Println(dataset.Profiled(dec.Matrix).String())
	}
	t := bench.NewTable("Rule-based cost model (ascending)", "format", "bytes/SMSV", "weight", "imbalance", "cost")
	for _, e := range dec.Estimates {
		t.Add(e.Format.String(), fmt.Sprint(e.Bytes), fmt.Sprintf("%.2f", e.Weight),
			fmt.Sprintf("%.2f", e.Imbalance), fmt.Sprintf("%.3g", e.Cost))
	}
	t.Render(os.Stdout)
	if len(dec.Measured) > 0 {
		fmt.Println()
		mt := bench.NewTable("Measured SMO pair-unit times", "candidate", "time")
		cands := make([]sparse.Candidate, 0, len(dec.Measured))
		for c := range dec.Measured {
			cands = append(cands, c)
		}
		sort.Slice(cands, func(i, j int) bool { return dec.Measured[cands[i]] < dec.Measured[cands[j]] })
		for _, c := range cands {
			mt.Add(c.String(), bench.FmtDur(dec.Measured[c]))
		}
		mt.Render(os.Stdout)
	}
	fmt.Printf("\nDecision (%v policy): store this dataset in %v format and run the %v kernel with %v chunking.\n",
		dec.Policy, dec.Chosen, dec.ChosenCandidate.Variant, dec.ChosenCandidate.Chunk)
	if counters != nil {
		fmt.Println()
		st := bench.NewTable("Kernel counters", "kernel", "invocations", "elements", "time")
		for _, ks := range counters.Snapshot() {
			st.Add(ks.Kind.String(), fmt.Sprint(ks.Calls), fmt.Sprint(ks.Elements), bench.FmtDur(ks.Time))
		}
		tot := counters.Total()
		st.Add("total", fmt.Sprint(tot.Calls), fmt.Sprint(tot.Elements), bench.FmtDur(tot.Time))
		st.Render(os.Stdout)
	}
}

// trainCmd fits a workload's predictor from measurement-labeled data:
// harvested tuning history, LIBSVM files measured on the spot (workloads
// whose corpus item is one matrix), and/or a generated synthetic corpus.
func trainCmd[P any, L learn.Candidate, F learn.Model, H, In any](w *learn.Workload[P, L, F, H, In], args []string) error {
	fs := flag.NewFlagSet("train"+w.CmdSuffix, flag.ExitOnError)
	var (
		histPath  = fs.String("history", "", w.Pair+"tuning-history file to harvest examples from")
		dataGlob  = new(string)
		synthetic = fs.Int("synthetic", 0, "generate and measure-label this many synthetic "+w.Items)
		out       = fs.String("out", w.FlagPrefix+"model.json", "output model file")
		trees     = fs.Int("trees", 0, "forest size (0 = default)")
		depth     = fs.Int("depth", 0, "maximum tree depth (0 = default)")
		seed      = fs.Int64("seed", 1, "corpus generation and measurement seed")
		workers   = fs.Int("workers", 0, "kernel workers for measurement (0 = all cores)")
	)
	sources := "-history and/or -synthetic"
	if w.Single != nil {
		fs.StringVar(dataGlob, "data", "", "glob of LIBSVM files to measure-label (e.g. 'corpus/*.libsvm')")
		sources = "-history, -data, and/or -synthetic"
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	ex := exec.New(*workers, exec.Static)
	defer ex.Close()

	var examples []core.Recorded[P, L]
	if *histPath != "" {
		h, err := w.LoadHistory(*histPath)
		if err != nil {
			return err
		}
		harvested := w.Harvest(h)
		fmt.Printf("harvested %d examples from %s\n", len(harvested), *histPath)
		examples = append(examples, harvested...)
	}
	measured, err := measureCorpus(w, *dataGlob, *synthetic, *seed, ex)
	if err != nil {
		return err
	}
	if len(measured) > 0 {
		fmt.Printf("measure-labeled %d %s\n", len(measured), w.Items)
		examples = append(examples, learn.Examples(measured)...)
	}
	forest, err := w.Train(examples, learn.TrainConfig{Trees: *trees, MaxDepth: *depth, Seed: *seed})
	if err != nil {
		return fmt.Errorf("%w (give %s)", err, sources)
	}
	if err := forest.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained %d trees on %d %sexamples, saved to %s\n", forest.Trees(), forest.TrainedOn(), w.Pair, *out)
	return nil
}

// evalCmd scores a trained predictor against a measured oracle on held-out
// data.
func evalCmd[P any, L learn.Candidate, F learn.Model, H, In any](w *learn.Workload[P, L, F, H, In], args []string) error {
	fs := flag.NewFlagSet("eval"+w.CmdSuffix, flag.ExitOnError)
	var (
		modelPath = fs.String("model", w.FlagPrefix+"model.json", "trained "+w.Pair+"model file")
		dataGlob  = new(string)
		synthetic = fs.Int("synthetic", 0, "evaluate on this many synthetic "+w.Items)
		seed      = fs.Int64("seed", 2, "corpus seed; keep it different from the training seed so the split is held out")
		tolerance = fs.Float64("tolerance", 1.25, "slowdown-vs-oracle counted as acceptable")
		minConf   = fs.Float64("min-confidence", core.DefaultMinConfidence, "confidence threshold for the low-confidence count")
		workers   = fs.Int("workers", 0, "kernel workers for measurement (0 = all cores)")
	)
	sources := "-synthetic"
	if w.Single != nil {
		fs.StringVar(dataGlob, "data", "", "glob of LIBSVM files to evaluate on")
		sources = "-data and/or -synthetic"
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	forest, err := w.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	ex := exec.New(*workers, exec.Static)
	defer ex.Close()
	measured, err := measureCorpus(w, *dataGlob, *synthetic, *seed, ex)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("nothing to evaluate: give %s", sources)
	}
	fmt.Println(w.Evaluate(forest, measured, *tolerance, *minConf))
	return nil
}

// measureCorpus assembles the measurement-labeled corpus both train and
// eval run on: LIBSVM files matching the glob plus n synthetic items.
func measureCorpus[P any, L learn.Candidate, F learn.Model, H, In any](w *learn.Workload[P, L, F, H, In], glob string, synthetic int, seed int64, ex *exec.Exec) ([]learn.Measured[P, L], error) {
	var corpus []In
	if glob != "" {
		paths, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no files match %q", glob)
		}
		sort.Strings(paths)
		for _, path := range paths {
			b, err := loadMatrix(path, "", seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			corpus = append(corpus, w.Single(b))
		}
	}
	if synthetic > 0 {
		corpus = append(corpus, w.Synthetic(synthetic, seed)...)
	}
	if len(corpus) == 0 {
		return nil, nil
	}
	return w.MeasureAll(context.Background(), corpus, ex, seed)
}

func loadMatrix(file, name string, seed int64) (*sparse.Builder, error) {
	switch {
	case file != "" && name != "":
		return nil, fmt.Errorf("give either -file or -dataset, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		samples, n, err := dataset.ParseLIBSVM(f)
		if err != nil {
			return nil, err
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("%s: no samples", file)
		}
		b, _ := dataset.SamplesToMatrix(samples, n)
		return b, nil
	case name != "":
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		return d.Generate(seed)
	default:
		return nil, fmt.Errorf("give -file or -dataset (one of: adult, breast_cancer, aloi, gisette, mnist, sector, epsilon, leukemia, connect-4, trefethen, dna)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layoutsched:", err)
	os.Exit(1)
}
