// Command benchtables regenerates every table and figure from the paper's
// evaluation: Figures 1–7 and Tables II–VII, printing the reproduced rows
// (with the paper's values beside them where the paper reports numbers).
//
// Usage:
//
//	benchtables -exp all
//	benchtables -exp fig1,fig2,table6 -workers 8 -quick
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 table2 table3 table4
// table5 table6 table7 tune live.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/svm"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments (fig1..fig7, table2..table7, tune, scaling, live) or 'all'")
		workers = flag.Int("workers", 0, "kernel workers (0 = all cores)")
		reps    = flag.Int("reps", 10, "SMSV repetitions per trial vector")
		seed    = flag.Int64("seed", 1, "dataset generation seed")
		quick   = flag.Bool("quick", false, "shrink the fig2/fig3 sweeps for a fast smoke run")
		policy  = flag.String("policy", "empirical", "table6 scheduler policy: rule-based, empirical, hybrid")
		format  = flag.String("format", "text", "output format: text, csv, markdown")
		list    = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	ex := exec.New(*workers, exec.Static)
	defer ex.Close()
	cfg := bench.ExpConfig{Exec: ex, Reps: *reps, Seed: *seed}
	if *quick {
		cfg.SweepN = 512
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	svmCfg := svm.Config{C: 1, Kernel: svm.KernelParams{Type: svm.Linear}, MaxIter: 3000}

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	exps := []experiment{
		{"fig1", func() (*bench.Table, error) { return bench.Fig1(cfg) }},
		{"fig2", func() (*bench.Table, error) { return bench.Fig2(cfg) }},
		{"fig3", func() (*bench.Table, error) { return bench.Fig3(cfg) }},
		{"fig4", func() (*bench.Table, error) { return bench.Fig4(cfg) }},
		{"fig5", bench.Fig5},
		{"fig6", bench.Fig6},
		{"fig7", func() (*bench.Table, error) { return bench.Fig7(cfg, svmCfg) }},
		{"table2", func() (*bench.Table, error) { return bench.TableII(cfg) }},
		{"table3", func() (*bench.Table, error) { return bench.TableIII(cfg) }},
		{"table4", func() (*bench.Table, error) { return bench.TableIV(cfg) }},
		{"table5", func() (*bench.Table, error) { return bench.TableV(cfg) }},
		{"table6", func() (*bench.Table, error) { return bench.TableVI(cfg, pol) }},
		{"table7", bench.TableVII},
		{"tune", bench.TuneDGX},
		{"scaling", bench.ScalingStudy},
		{"live", func() (*bench.Table, error) { return bench.LiveDNNTuning(ex, *seed) }},
	}

	if *list {
		for _, e := range exps {
			fmt.Println(e.name)
		}
		return
	}
	want := map[string]bool{}
	if *exp != "all" {
		for _, name := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(name)] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.name] = true
		}
		for name := range want {
			if !known[name] {
				fatal(fmt.Errorf("unknown experiment %q", name))
			}
		}
	}
	for _, e := range exps {
		if *exp != "all" && !want[e.name] {
			continue
		}
		t, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		if err := t.RenderAs(os.Stdout, *format); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}
