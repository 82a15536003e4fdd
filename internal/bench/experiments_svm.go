package bench

import (
	"fmt"
	"math"
	mrand "math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
	"repro/internal/svm"
	"repro/internal/svm/reference"
)

// ExpConfig controls the experiment drivers' cost/fidelity trade-off.
type ExpConfig struct {
	// Exec is the execution context all measurement kernels run under;
	// nil means exec.Default().
	Exec      *exec.Exec
	Reps      int   // SMSV repetitions per trial vector
	TrialRows int   // sampled x vectors per measurement
	Seed      int64 // dataset generation seed
	// SweepN is the matrix edge for the Figure 2/3 parametric sweeps
	// (the paper uses 4096; smaller values keep smoke runs fast).
	SweepN int
}

// Defaults fills zero fields with sensible values.
func (c ExpConfig) Defaults() ExpConfig {
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.TrialRows <= 0 {
		c.TrialRows = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SweepN <= 0 {
		c.SweepN = 4096
	}
	return c
}

// newRand returns a seeded RNG for experiment reproducibility.
func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// Fig1 reproduces Figure 1: per-format SMSV speedup normalized to the
// slowest format on the five figure datasets (adult, aloi, mnist, gisette,
// trefethen).
func Fig1(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	t := NewTable("Figure 1 — format speedups per dataset (normalized to slowest format)",
		"dataset", "ELL", "CSR", "COO", "DEN", "DIA", "best", "paper best")
	paperBest := map[string]string{
		"adult": "ELL", "aloi": "CSR", "mnist": "COO", "gisette": "DEN", "trefethen": "DIA",
	}
	for _, name := range dataset.Figure1Names {
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		b := d.MustGenerate(cfg.Seed)
		times, err := TimeFormats(b, cfg.Reps, cfg.TrialRows, cfg.Exec, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", name, err)
		}
		sp := SpeedupsVsSlowest(times)
		best, _ := BestWorst(times)
		t.Add(name,
			FmtX(sp[sparse.ELL]), FmtX(sp[sparse.CSR]), FmtX(sp[sparse.COO]),
			FmtX(sp[sparse.DEN]), FmtX(sp[sparse.DIA]),
			best.String(), paperBest[name])
	}
	return t, nil
}

// Fig2 reproduces Figure 2: DIA SMSV performance versus the number of
// diagonals at fixed M = N = SweepN and nnz = SweepN, normalized to the
// worst case (ndig = SweepN).
func Fig2(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	n := cfg.SweepN
	t := NewTable(fmt.Sprintf("Figure 2 — DIA speedup vs #diagonals (M=N=%d, nnz=%d, baseline ndig=%d)", n, n, n),
		"ndig", "time", "speedup")
	var times []time.Duration
	var ndigs []int
	for ndig := 2; ndig <= n; ndig *= 2 {
		rng := newRand(cfg.Seed + int64(ndig))
		b, err := dataset.Banded(n, n, ndig, int64(n), rng)
		if err != nil {
			return nil, err
		}
		m, err := b.Build(sparse.DIA)
		if err != nil {
			return nil, fmt.Errorf("fig2 ndig=%d: %w", ndig, err)
		}
		xs := SampleRows(m, cfg.TrialRows, cfg.Seed)
		times = append(times, TimeSMSV(m, xs, cfg.Reps, cfg.Exec))
		ndigs = append(ndigs, ndig)
	}
	base := times[len(times)-1] // worst case: most diagonals
	for i, ndig := range ndigs {
		t.Add(fmt.Sprint(ndig), FmtDur(times[i]), FmtX(float64(base)/float64(times[i])))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: ELL SMSV performance versus mdim at fixed
// M = N = SweepN and nnz = 2·SweepN, normalized to the worst case.
func Fig3(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	n := cfg.SweepN
	nnz := int64(2 * n)
	t := NewTable(fmt.Sprintf("Figure 3 — ELL speedup vs mdim (M=N=%d, nnz=%d, baseline mdim=%d)", n, nnz, n),
		"mdim", "time", "speedup")
	var times []time.Duration
	var mdims []int
	for mdim := 2; mdim <= n; mdim *= 2 {
		rng := newRand(cfg.Seed + int64(mdim))
		b, err := dataset.SkewRows(n, n, nnz, mdim, rng)
		if err != nil {
			return nil, err
		}
		m, err := b.Build(sparse.ELL)
		if err != nil {
			return nil, err
		}
		xs := SampleRows(m, cfg.TrialRows, cfg.Seed)
		times = append(times, TimeSMSV(m, xs, cfg.Reps, cfg.Exec))
		mdims = append(mdims, mdim)
	}
	base := times[len(times)-1]
	for i, mdim := range mdims {
		t.Add(fmt.Sprint(mdim), FmtDur(times[i]), FmtX(float64(base)/float64(times[i])))
	}
	return t, nil
}

// Fig4 reproduces Figure 4: the COO-over-CSR speedup as vdim grows, on a
// generated family with fixed M, N and adim. The geometry follows the
// paper's high-vdim dataset (sector: few rows, very long tail rows) where
// CSR's static row partitioning genuinely straggles; COO's nnz-parallel
// kernel is immune.
func Fig4(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	m, n := 400, 16000
	adim := 160.0
	const simP = 8 // simulated core count for the critical-path comparison
	t := NewTable(fmt.Sprintf("Figure 4 — COO over CSR speedup vs vdim (M=%d, N=%d, adim=%.0f, %d simulated workers)", m, n, adim, simP),
		"vdim", "CSR crit-path", "COO balanced", "COO/CSR speedup")
	// Fixed heavy-row fraction p: as vdim grows the K heavy rows get
	// longer (D = √(vdim·(1−p)/p)) while their count and positions stay
	// fixed, isolating the skew effect. The heavy rows sit contiguously —
	// as they do in the paper's high-vdim dataset (sector groups long
	// documents by industry) — so a static row partition concentrates
	// them in one worker's chunk.
	const p = 0.015
	k := int(p*float64(m) + 0.5)
	// Serial timings are millisecond-scale; a higher repetition floor
	// keeps them above timer/GC noise.
	reps := cfg.Reps
	if reps < 20 {
		reps = 20
	}
	for _, vdim := range []float64{0, 1000, 4000, 16000, 64000, 256000} {
		rng := newRand(cfg.Seed)
		d := math.Sqrt(vdim * (1 - p) / p)
		mdim := int(adim + d)
		if mdim > n {
			mdim = n
		}
		if mdim <= int(adim) {
			mdim = int(adim) + 1
		}
		// Short-row length balancing total nnz to adim·m.
		x := (int(adim)*m - k*mdim) / (m - k)
		if x < 0 {
			x = 0
		}
		lens := make([]int, m)
		for i := range lens {
			lens[i] = x
		}
		for i := 0; i < k; i++ {
			lens[m/3+i] = mdim // contiguous heavy block
		}
		b := dataset.FromRowLengths(lens, n, rng)
		csr, err := b.Build(sparse.CSR)
		if err != nil {
			return nil, err
		}
		coo, err := b.Build(sparse.COO)
		if err != nil {
			return nil, err
		}
		xs := SampleRows(csr, cfg.TrialRows, cfg.Seed)
		// Simulated P-way execution: CSR pays its static-partition
		// critical path, COO's nnz partition divides evenly — the
		// load-balance mechanism behind the paper's Figure 4 trend,
		// measured host-independently (see simulate.go).
		tCSR := SimulatedCSRStaticTime(csr.(*sparse.CSRMatrix), xs, reps, simP)
		tCOO := SimulatedCOOTime(coo.(*sparse.COOMatrix), xs, reps, simP)
		t.Add(fmt.Sprintf("%.0f", vdim), FmtDur(tCSR), FmtDur(tCOO),
			fmt.Sprintf("%.2fx", float64(tCSR)/float64(tCOO)))
	}
	return t, nil
}

// TableII reproduces the paper's Table II: analytic min/max storage per
// format, plus the measured stored-element counts of a concrete example.
func TableII(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	const m, n = 1000, 500
	bounds := sparse.TableII(m, n)
	t := NewTable(fmt.Sprintf("Table II — storage space bounds for an M×N matrix (example M=%d, N=%d)", m, n),
		"format", "min", "max", "measured (density 0.05)")
	rng := newRand(cfg.Seed)
	plan, err := dataset.PlanRows(m, n, 25, 0, 25)
	if err != nil {
		return nil, err
	}
	b := dataset.FromRowLengths(plan.Lengths(0, rng), n, rng)
	measured := map[sparse.Format]int64{}
	for _, f := range []sparse.Format{sparse.DEN, sparse.CSR, sparse.COO, sparse.ELL, sparse.DIA} {
		mat, err := b.Build(f)
		if err != nil {
			return nil, err
		}
		measured[f] = mat.StoredElements()
	}
	for _, bd := range bounds {
		t.Add(bd.Format.String(), fmt.Sprint(bd.Min), fmt.Sprint(bd.Max), fmt.Sprint(measured[bd.Format]))
	}
	return t, nil
}

// TableIII reproduces Table III: per-dataset format speedups with the
// best/worst gap, over the same five datasets as Figure 1.
func TableIII(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	t := NewTable("Table III — best-over-worst format gaps",
		"dataset", "best", "worst", "best/worst gap", "paper gap")
	paperGap := map[string]string{
		"adult": "14.0x", "aloi": "6.6x", "mnist": "5.1x", "gisette": "3.7x", "trefethen": "4.1x",
	}
	for _, name := range dataset.Figure1Names {
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		b := d.MustGenerate(cfg.Seed)
		times, err := TimeFormats(b, cfg.Reps, cfg.TrialRows, cfg.Exec, cfg.Seed)
		if err != nil {
			return nil, err
		}
		best, worst := BestWorst(times)
		gap := float64(times[worst]) / float64(times[best])
		t.Add(name, best.String(), worst.String(), FmtX(gap), paperGap[name])
	}
	return t, nil
}

// TableIV prints the paper's Table IV: the nine influencing parameters and
// their correlation signs, alongside the values extracted from one dataset.
func TableIV(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	d, err := dataset.ByName("mnist")
	if err != nil {
		return nil, err
	}
	f := dataset.Extract(d.MustGenerate(cfg.Seed).MustBuild(sparse.CSR))
	t := NewTable("Table IV — influencing parameters (correlations per paper; values for the mnist clone)",
		"parameter", "ELL", "CSR", "COO", "DEN", "DIA", "mnist clone value")
	t.Add("M", "±", "±", "±", "±", "±", fmt.Sprint(f.M))
	t.Add("N", "x", "x", "x", "-", "x", fmt.Sprint(f.N))
	t.Add("nnz", "±", "±", "±", "+", "±", fmt.Sprint(f.NNZ))
	t.Add("ndig", "x", "x", "x", "x", "-", fmt.Sprint(f.Ndig))
	t.Add("dnnz", "x", "x", "x", "+", "+", fmt.Sprintf("%.2f", f.Dnnz))
	t.Add("mdim", "-", "x", "x", "x", "x", fmt.Sprint(f.Mdim))
	t.Add("adim", "+", "x", "x", "+", "x", fmt.Sprintf("%.2f", f.Adim))
	t.Add("vdim", "-", "-", "+", "x", "x", fmt.Sprintf("%.1f", f.Vdim))
	t.Add("density", "±", "±", "±", "+", "±", fmt.Sprintf("%.3f", f.Density))
	return t, nil
}

// TableV prints every generated clone's extracted statistics beside the
// paper's Table V targets.
func TableV(cfg ExpConfig) (*Table, error) {
	cfg = cfg.Defaults()
	t := NewTable("Table V — dataset clones: generated statistics (paper targets in parentheses)",
		"dataset", "M", "N", "nnz", "ndig", "mdim", "adim", "vdim", "density")
	for _, d := range dataset.TableV() {
		f := dataset.Extract(d.MustGenerate(cfg.Seed).MustBuild(sparse.CSR))
		scaled := ""
		if d.Scaled {
			scaled = "*"
		}
		t.Add(
			d.Name+scaled,
			fmt.Sprintf("%d (%d)", f.M, d.Paper.M),
			fmt.Sprintf("%d (%d)", f.N, d.Paper.N),
			fmt.Sprintf("%d (%d)", f.NNZ, d.Paper.NNZ),
			fmt.Sprintf("%d (%d)", f.Ndig, d.Paper.Ndig),
			fmt.Sprintf("%d (%d)", f.Mdim, d.Paper.Mdim),
			fmt.Sprintf("%.1f (%.1f)", f.Adim, d.Paper.Adim),
			fmt.Sprintf("%.3g (%.3g)", f.Vdim, d.Paper.Vdim),
			fmt.Sprintf("%.3f (%.3f)", f.Density, d.Paper.Density),
		)
	}
	return t, nil
}

// TableVI reproduces the adaptive-system evaluation: for each of the nine
// Table VI datasets, the scheduler's selection, its average speedup over
// the other basic formats, and its maximum speedup over the worst one. A
// selection outside the five, the column dataflow's CSC, is timed on its
// decided matrix.
func TableVI(cfg ExpConfig, policy core.Policy) (*Table, error) {
	cfg = cfg.Defaults()
	t := NewTable(fmt.Sprintf("Table VI — adaptive layout scheduling (%v policy)", policy),
		"dataset", "selection", "worst", "avg speedup", "max speedup", "paper selection", "paper avg/max")
	paper := map[string][3]string{
		"adult":         {"ELL", "3.8x", "14.3x"},
		"breast_cancer": {"CSR", "16.2x", "35.7x"},
		"aloi":          {"CSR", "3.1x", "6.6x"},
		"gisette":       {"DEN", "2.4x", "3.7x"},
		"mnist":         {"COO", "3.0x", "5.1x"},
		"sector":        {"COO", "14.3x", "39.6x"},
		"leukemia":      {"DEN", "13.3x", "29.0x"},
		"connect-4":     {"DEN", "3.3x", "6.4x"},
		"trefethen":     {"DIA", "1.7x", "4.1x"},
	}
	sched := core.New(core.Config{Policy: policy, Exec: cfg.Exec,
		TrialRows: cfg.TrialRows, Repeats: cfg.Reps, Seed: cfg.Seed})
	for _, name := range dataset.Table6Names {
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		b := d.MustGenerate(cfg.Seed)
		dec, err := sched.Choose(b)
		if err != nil {
			return nil, fmt.Errorf("table6 %s: %w", name, err)
		}
		times, err := TimeFormats(b, cfg.Reps, cfg.TrialRows, cfg.Exec, cfg.Seed)
		if err != nil {
			return nil, err
		}
		chosen, ok := times[dec.Chosen]
		if !ok {
			// A format outside the five, the column dataflow's CSC: its
			// decided matrix is timed on the same rows, the same way.
			xs := SampleRows(b.MustBuild(sparse.CSR), cfg.TrialRows, cfg.Seed)
			chosen = bestOfThree(dec.Matrix, xs, cfg.Reps, cfg.Exec)
		}
		var sumRatio float64
		var count int
		var worst sparse.Format
		for f, tm := range times {
			if f == dec.Chosen {
				continue
			}
			sumRatio += float64(tm) / float64(chosen)
			count++
			if worst == dec.Chosen || tm > times[worst] {
				worst = f
			}
		}
		avg := sumRatio / float64(count)
		maxSp := float64(times[worst]) / float64(chosen)
		pp := paper[name]
		t.Add(name, dec.Chosen.String(), worst.String(), FmtX(avg), FmtX(maxSp),
			pp[0], pp[1]+" / "+pp[2])
	}
	return t, nil
}

// Fig7 reproduces Figure 7: end-to-end SMO training speedup of the
// adaptive solver over the fixed-CSR LIBSVM-style reference, per dataset.
func Fig7(cfg ExpConfig, svmCfg svm.Config) (*Table, error) {
	cfg = cfg.Defaults()
	t := NewTable("Figure 7 — adaptive SVM speedup over parallel-LIBSVM-style baseline",
		"dataset", "baseline", "adaptive", "selection", "iters", "speedup")
	sched := core.New(core.Config{Policy: core.Empirical, Exec: cfg.Exec,
		TrialRows: cfg.TrialRows, Repeats: cfg.Reps, Seed: cfg.Seed})
	for _, name := range dataset.Table6Names {
		d, err := dataset.ByName(name)
		if err != nil {
			return nil, err
		}
		b := d.MustGenerate(cfg.Seed)
		rng := newRand(cfg.Seed + 7)
		y := dataset.PlantedLabels(b.MustBuild(sparse.CSR), 0.02, rng)

		refCfg := reference.Config{C: svmCfg.C, Tol: svmCfg.Tol, MaxIter: svmCfg.MaxIter,
			Kernel: svmCfg.Kernel, Exec: cfg.Exec}
		_, refStats, err := reference.Train(b, y, refCfg)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s baseline: %w", name, err)
		}
		adCfg := svmCfg
		adCfg.Exec = cfg.Exec
		res, err := svm.TrainAdaptive(b, y, sched, adCfg)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s adaptive: %w", name, err)
		}
		t.Add(name, FmtDur(refStats.TotalTime), FmtDur(res.Stats.TotalTime),
			res.Decision.Chosen.String(), fmt.Sprint(res.Stats.Iterations),
			fmt.Sprintf("%.2fx", float64(refStats.TotalTime)/float64(res.Stats.TotalTime)))
	}
	return t, nil
}
