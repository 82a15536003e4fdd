package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/serve"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

// spgemmCmd decides a dataflow × format-pair candidate for one A×B sparse
// matrix product: the SpGEMM twin of the default SMSV schedule mode.
func spgemmCmd(args []string) error {
	fs := flag.NewFlagSet("spgemm", flag.ExitOnError)
	var (
		policy   = fs.String("policy", "hybrid", "decision policy: rule-based, empirical, hybrid, predict")
		workers  = fs.Int("workers", 0, "kernel workers (0 = all cores)")
		seed     = fs.Int64("seed", 1, "measurement shuffle seed")
		histPath = fs.String("history", "", "pair tuning-history file: decisions are reused for similar operand pairs and new ones appended")
		predPath = fs.String("predictor", "", "trained pair-predictor file (required for -policy predict)")
		minConf  = fs.Float64("min-confidence", 0, "predictor confidence below which the decision falls back to measurement (0 = default)")
		jsonOut  = fs.Bool("json", false, "emit the decision as machine-readable JSON (the layoutd wire format) instead of tables")
		traceOut = fs.Bool("trace", false, "print the decision's span tree to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: layoutsched spgemm [flags] a.libsvm b.libsvm")
		fmt.Fprintln(fs.Output(), "A's column count must equal B's row count (A is m×k, B is k×n).")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("give exactly two LIBSVM operand files, got %d args", fs.NArg())
	}
	a, err := loadMatrix(fs.Arg(0), "", *seed)
	if err != nil {
		return fmt.Errorf("operand A: %w", err)
	}
	b, err := loadMatrix(fs.Arg(1), "", *seed)
	if err != nil {
		return fmt.Errorf("operand B: %w", err)
	}

	p, err := core.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	var hist *core.PairHistory
	if *histPath != "" {
		hist, err = learn.SpGEMM.LoadHistory(*histPath)
		if err != nil {
			return err
		}
	}
	cfg := core.SpGEMMConfig{Policy: p, Seed: *seed, History: hist, MinConfidence: *minConf}
	if *predPath != "" {
		forest, err := learn.SpGEMM.LoadModelFile(*predPath)
		if err != nil {
			return err
		}
		cfg.Predictor = forest
	} else if p == core.PolicyPredict {
		return fmt.Errorf("policy predict needs -predictor (train one with layoutsched train-spgemm)")
	}
	ex := exec.New(*workers, exec.Static)
	defer ex.Close()
	cfg.Exec = ex
	sched := core.NewSpGEMM(cfg)

	ctx := context.Background()
	var tr *telemetry.Trace
	var root telemetry.Span
	if *traceOut {
		ctx, tr, root = telemetry.NewTrace(ctx, "layoutsched.spgemm",
			telemetry.String("policy", *policy))
	}
	dec, err := sched.ChooseContext(ctx, a, b)
	if tr != nil {
		root.EndErr(err)
		tr.Finish()
		fmt.Fprint(os.Stderr, tr.Tree())
	}
	if err != nil {
		return err
	}
	if hist != nil {
		if err := hist.SaveFile(*histPath); err != nil {
			return err
		}
	}
	if *jsonOut {
		dj := serve.NewSpGEMMDecisionJSON(dec)
		if tr != nil {
			dj.TraceID = tr.ID
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(dj)
	}

	if hist != nil && dec.Rung == core.RungHistory {
		fmt.Println("(decision reused from pair tuning history)")
	}
	if dec.Rung == core.RungPredictor {
		fmt.Printf("(decision predicted by the trained pair model, confidence %.2f — no measurement)\n", dec.Confidence)
	} else if p == core.PolicyPredict {
		fmt.Printf("(pair predictor confidence %.2f below threshold: measured instead)\n", dec.Confidence)
	}
	fmt.Println("Operand influencing parameters (Table IV, per operand):")
	fmt.Printf("  A: %v\n  B: %v\n", dec.AFeatures, dec.BFeatures)
	fmt.Printf("  estimated output nnz %.0f", dec.EstimatedNNZ)
	if dec.OutputNNZ > 0 {
		fmt.Printf(" (exact from the chosen product: %d)", dec.OutputNNZ)
	}
	fmt.Println()
	fmt.Println()
	t := bench.NewTable("Dataflow cost model (ascending)", "candidate", "cost")
	for _, e := range dec.Estimates {
		t.Add(e.Candidate.String(), fmt.Sprintf("%.3g", e.Cost))
	}
	t.Render(os.Stdout)
	if len(dec.Measured) > 0 {
		fmt.Println()
		mt := bench.NewTable("Measured product times", "candidate", "time")
		cands := make([]spgemm.Candidate, 0, len(dec.Measured))
		for c := range dec.Measured {
			cands = append(cands, c)
		}
		sort.Slice(cands, func(i, j int) bool { return dec.Measured[cands[i]] < dec.Measured[cands[j]] })
		for _, c := range cands {
			mt.Add(c.String(), bench.FmtDur(dec.Measured[c]))
		}
		mt.Render(os.Stdout)
	}
	fmt.Printf("\nDecision (%v policy): run the %v dataflow with A in %v and B in %v format.\n",
		dec.Policy, dec.Chosen.Dataflow, dec.Chosen.AFormat, dec.Chosen.BFormat)
	return nil
}
