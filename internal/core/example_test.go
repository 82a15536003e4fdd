package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Schedule the storage format for the banded trefethen clone: the
// rule-based model reads the Table IV parameters and picks DIA.
func ExampleScheduler_Choose() {
	d, err := dataset.ByName("trefethen")
	if err != nil {
		panic(err)
	}
	sched := core.New(core.Config{Policy: core.RuleBased})
	dec, err := sched.Choose(d.MustGenerate(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("ndig:", dec.Features.Ndig)
	fmt.Println("chosen:", dec.Chosen)
	// Output:
	// ndig: 12
	// chosen: DIA
}

// The cost model explains itself: every format gets a byte count, an
// access weight and an imbalance factor.
func ExampleEstimateCosts() {
	f := dataset.Features{
		M: 1000, N: 1000, NNZ: 10000, Ndig: 10, Dnnz: 1000,
		Mdim: 10, Adim: 10, Vdim: 0, Density: 0.01,
	}
	best := core.EstimateCosts(f)[0]
	fmt.Println(best.Format)
	// Output:
	// DIA
}

// Incremental auto-tuning: a second, similar dataset reuses the recorded
// decision without re-measuring.
func ExampleHistory() {
	h := &core.History{}
	sched := core.New(core.Config{Policy: core.Empirical, History: h})
	d, err := dataset.ByName("adult")
	if err != nil {
		panic(err)
	}
	first, err := sched.Choose(d.MustGenerate(1))
	if err != nil {
		panic(err)
	}
	second, err := sched.Choose(d.MustGenerate(2))
	if err != nil {
		panic(err)
	}
	fmt.Println("first reused:", first.Rung == core.RungHistory)
	fmt.Println("second reused:", second.Rung == core.RungHistory)
	fmt.Println("same format:", first.Chosen == second.Chosen)
	// Output:
	// first reused: false
	// second reused: true
	// same format: true
}
