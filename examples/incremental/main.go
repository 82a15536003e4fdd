// Incremental demonstrates the scheduler's tuning history on a workload
// stream: twenty dataset arrivals drawn from the Table V catalogue with
// varying seeds. The first sight of each dataset shape pays for empirical
// measurement; later arrivals of similar shapes reuse the recorded format
// instantly — incremental auto-tuning across a workload.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	hist := &core.History{}
	sched := core.New(core.Config{Policy: core.Empirical, History: hist})

	// A workload: datasets arrive in interleaved order, re-appearing with
	// fresh content (different seeds) but the same statistical shape.
	arrivals := []struct {
		name string
		seed int64
	}{
		{"adult", 1}, {"trefethen", 1}, {"adult", 2}, {"aloi", 1},
		{"trefethen", 2}, {"adult", 3}, {"aloi", 2}, {"mnist", 1},
		{"trefethen", 3}, {"mnist", 2}, {"aloi", 3}, {"adult", 4},
		{"connect-4", 1}, {"mnist", 3}, {"connect-4", 2}, {"trefethen", 4},
		{"gisette", 1}, {"adult", 5}, {"gisette", 2}, {"aloi", 4},
	}

	t := bench.NewTable("Incremental auto-tuning over a 20-arrival workload",
		"#", "dataset", "seed", "format", "decision time", "source")
	var measured, reused int
	var measuredTime, reusedTime time.Duration
	for i, a := range arrivals {
		d, err := dataset.ByName(a.name)
		if err != nil {
			log.Fatal(err)
		}
		b := d.MustGenerate(a.seed)
		start := time.Now()
		dec, err := sched.Choose(b)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if dec.Rung == core.RungHistory {
			reused++
			reusedTime += elapsed
		} else {
			measured++
			measuredTime += elapsed
		}
		t.Add(fmt.Sprint(i+1), a.name, fmt.Sprint(a.seed), dec.Chosen.String(),
			bench.FmtDur(elapsed), dec.Rung.String())
	}
	t.Render(os.Stdout)
	fmt.Printf("\n%d measured decisions (%v total), %d reused from history (%v total)\n",
		measured, measuredTime.Round(time.Millisecond), reused, reusedTime.Round(time.Millisecond))
	fmt.Printf("history size: %d entries; amortized decision cost fell %.0fx on warm arrivals\n",
		hist.Len(), float64(measuredTime)/float64(measured)/(float64(reusedTime)/float64(reused)))
}
