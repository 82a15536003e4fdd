// Command svmtrain trains a binary SVM with runtime-scheduled data layout
// and reports the decision, training statistics and accuracy. It can also
// train with every fixed format (the non-adaptive baselines of Table VI)
// and with the LIBSVM-style reference for comparison.
//
// Usage:
//
//	svmtrain -dataset adult                     # adaptive training on a clone
//	svmtrain -file data.libsvm -kernel gaussian -C 10
//	svmtrain -dataset mnist -compare            # adaptive vs every fixed format
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/svm/reference"
)

func main() {
	var (
		file     = flag.String("file", "", "LIBSVM-format dataset file (labels must be ±1)")
		name     = flag.String("dataset", "", "Table V dataset clone name")
		kernel   = flag.String("kernel", "linear", "kernel: linear, polynomial, gaussian, sigmoid")
		c        = flag.Float64("C", 1, "regularization constant C")
		gamma    = flag.Float64("gamma", 0, "gaussian gamma (0 = 1/num_features)")
		degree   = flag.Int("degree", 3, "polynomial degree")
		tol      = flag.Float64("tol", 1e-3, "KKT tolerance")
		maxIter  = flag.Int("maxiter", 0, "iteration cap (0 = 10n+1000)")
		workers  = flag.Int("workers", 0, "kernel workers (0 = all cores)")
		seed     = flag.Int64("seed", 1, "clone generation / label seed")
		noise    = flag.Float64("noise", 0.02, "label noise for generated clones")
		compare  = flag.Bool("compare", false, "also train with every fixed format and the reference baseline")
		modelOut = flag.String("model", "", "write the trained model to this file")
		shrink   = flag.Bool("shrink", false, "shrink the active set (active-set submatrix SMSVs)")
		wss2     = flag.Bool("wss2", false, "second-order working-set selection")
		cache    = flag.Int("cache", 0, "kernel-row LRU cache size (rows)")
	)
	flag.Parse()

	b, y, numFeatures, err := load(*file, *name, *seed, *noise)
	if err != nil {
		fatal(err)
	}
	kp, err := kernelParams(*kernel, *gamma, *degree, numFeatures)
	if err != nil {
		fatal(err)
	}
	ex := exec.New(*workers, exec.Static)
	defer ex.Close()
	cfg := svm.Config{C: *c, Tol: *tol, MaxIter: *maxIter, Kernel: kp, Exec: ex,
		Shrinking: *shrink, SecondOrder: *wss2, CacheRows: *cache}
	sched := core.New(core.Config{Policy: core.Hybrid, Exec: ex, Seed: *seed})

	res, err := svm.TrainAdaptive(b, y, sched, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Features: %v\n", res.Decision.Features)
	fmt.Printf("Layout decision (%v policy): %v\n", res.Decision.Policy, res.Decision.Chosen)
	fmt.Printf("Training: %d iterations, converged=%v, %d SVs, objective=%.6g\n",
		res.Stats.Iterations, res.Stats.Converged, res.Stats.NumSV, res.Stats.Objective)
	fmt.Printf("Time: total %v (kernel SMSVs %v)\n", res.Stats.TotalTime, res.Stats.KernelTime)
	acc := res.Model.Accuracy(res.Decision.Matrix, y, ex)
	fmt.Printf("Training accuracy: %.4f\n", acc)
	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			fatal(err)
		}
		if err := res.Model.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("Model written to %s\n", *modelOut)
	}

	if !*compare {
		return
	}
	fmt.Println()
	t := bench.NewTable("Fixed-format and baseline comparison", "trainer", "iters", "converged", "total time", "speedup vs slowest")
	type row struct {
		name      string
		iters     int
		converged bool
		total     int64
	}
	var rows []row
	for _, f := range sparse.BasicFormats {
		_, stats, err := svm.TrainFixed(b, y, f, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svmtrain: fixed %v: %v\n", f, err)
			continue
		}
		rows = append(rows, row{"fixed-" + f.String(), stats.Iterations, stats.Converged, int64(stats.TotalTime)})
	}
	refCfg := reference.Config{C: *c, Tol: *tol, MaxIter: *maxIter, Kernel: kp, Exec: ex}
	if _, stats, err := reference.Train(b, y, refCfg); err == nil {
		rows = append(rows, row{"reference-libsvm-csr", stats.Iterations, stats.Converged, int64(stats.TotalTime)})
	}
	rows = append(rows, row{"adaptive-" + res.Decision.Chosen.String(), res.Stats.Iterations, res.Stats.Converged, int64(res.Stats.TotalTime)})
	var slowest int64
	for _, r := range rows {
		if r.total > slowest {
			slowest = r.total
		}
	}
	for _, r := range rows {
		t.Add(r.name, fmt.Sprint(r.iters), fmt.Sprint(r.converged),
			fmt.Sprintf("%.3gms", float64(r.total)/1e6),
			fmt.Sprintf("%.2fx", float64(slowest)/float64(r.total)))
	}
	t.Render(os.Stdout)
}

func load(file, name string, seed int64, noise float64) (*sparse.Builder, []float64, int, error) {
	switch {
	case file != "" && name != "":
		return nil, nil, 0, fmt.Errorf("give either -file or -dataset, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, 0, err
		}
		defer f.Close()
		samples, n, err := dataset.ParseLIBSVM(f)
		if err != nil {
			return nil, nil, 0, err
		}
		b, y := dataset.SamplesToMatrix(samples, n)
		return b, y, n, nil
	case name != "":
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, nil, 0, err
		}
		b, err := d.Generate(seed)
		if err != nil {
			return nil, nil, 0, err
		}
		m, err := b.Build(sparse.CSR)
		if err != nil {
			return nil, nil, 0, err
		}
		y := dataset.PlantedLabels(m, noise, rand.New(rand.NewSource(seed+5)))
		return b, y, d.CloneN, nil
	default:
		return nil, nil, 0, fmt.Errorf("give -file or -dataset")
	}
}

func kernelParams(name string, gamma float64, degree, numFeatures int) (svm.KernelParams, error) {
	switch name {
	case "linear":
		return svm.KernelParams{Type: svm.Linear}, nil
	case "polynomial":
		return svm.KernelParams{Type: svm.Polynomial, A: 1, R: 1, Degree: degree}, nil
	case "gaussian":
		if gamma > 0 {
			return svm.KernelParams{Type: svm.Gaussian, Gamma: gamma}, nil
		}
		return svm.DefaultGaussian(numFeatures), nil
	case "sigmoid":
		return svm.KernelParams{Type: svm.Sigmoid, A: 1, R: -1}, nil
	default:
		return svm.KernelParams{}, fmt.Errorf("unknown kernel %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svmtrain:", err)
	os.Exit(1)
}
