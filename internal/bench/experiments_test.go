package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/svm"
)

// quickCfg keeps the experiment drivers fast enough for unit tests.
func quickCfg() ExpConfig {
	return ExpConfig{Exec: exec.Serial(), Reps: 1, TrialRows: 1, Seed: 1, SweepN: 64}
}

func renderOK(t *testing.T, tbl *Table, wantRows int) {
	t.Helper()
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), wantRows)
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s: empty render", tbl.Title)
	}
}

func TestFig1Driver(t *testing.T) {
	tbl, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 5)
}

func TestFig2Fig3Drivers(t *testing.T) {
	tbl, err := Fig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 6) // ndig in {2,4,...,64}
	// The speedup column must end at 1.0x (the worst case is the baseline).
	if got := tbl.Rows[len(tbl.Rows)-1][2]; got != "1.0x" {
		t.Fatalf("fig2 baseline row speedup %q", got)
	}
	tbl3, err := Fig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl3, 6)
}

func TestFig4Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	tbl, err := Fig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 6)
}

func TestTableDrivers(t *testing.T) {
	cfg := quickCfg()
	t2, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, t2, 5)
	t3, err := TableIII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, t3, 5)
	t4, err := TableIV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, t4, 9)
	t5, err := TableV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, t5, 11)
}

func TestTableVIDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	for _, policy := range []core.Policy{core.RuleBased, core.Empirical, core.Hybrid} {
		tbl, err := TableVI(quickCfg(), policy)
		if err != nil {
			t.Fatal(err)
		}
		renderOK(t, tbl, 9)
		// Every speed-up is a finite, positive ratio, whichever format the
		// policy selected: the column dataflow's included.
		for _, row := range tbl.Rows {
			for _, cell := range row[3:5] {
				x, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
				if err != nil || math.IsInf(x, 0) || math.IsNaN(x) || x <= 0 {
					t.Errorf("%v policy, %s (selected %s): speed-up cell %q", policy, row[0], row[1], cell)
				}
			}
		}
	}
}

func TestDNNDrivers(t *testing.T) {
	t7, err := TableVII()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, t7, 8)
	f5, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, f5, 8)
	f6, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, f6, 8)
	tune, err := TuneDGX()
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tune, 3)
}

func TestFig7Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 18 SVMs")
	}
	tbl, err := Fig7(quickCfg(), svm.Config{
		C: 1, Kernel: svm.KernelParams{Type: svm.Linear}, MaxIter: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, tbl, 9)
	// Every row must carry a speedup cell ending in "x".
	for _, row := range tbl.Rows {
		if !strings.HasSuffix(row[5], "x") {
			t.Fatalf("speedup cell %q", row[5])
		}
	}
}
