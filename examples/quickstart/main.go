// Quickstart: build a small sparse dataset, let the runtime layout
// scheduler pick its storage format, and train an SVM on the chosen layout.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/svm"
)

func main() {
	// 1. Assemble a dataset: 500 samples, 64 features, ~10 nonzeros per
	//    row, labels from a planted hyperplane.
	rng := rand.New(rand.NewSource(42))
	b := sparse.NewBuilder(500, 64)
	for i := 0; i < 500; i++ {
		for j := 0; j < 64; j++ {
			if rng.Float64() < 0.15 {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	y := dataset.PlantedLabels(b.MustBuild(sparse.CSR), 0.03, rng)

	// 2. Ask the scheduler how to lay this matrix out. The hybrid policy
	//    ranks the paper's five formats (DEN/CSR/COO/ELL/DIA) together with
	//    the column dataflow (CSC/static/fused: products by CSC's column
	//    kernel), and on this matrix, as on most, it picks the column one.
	sched := core.New(core.Config{Policy: core.Hybrid})
	dec, err := sched.Choose(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset:  %v\n", dec.Features)
	fmt.Printf("decision: %v (policy %v)\n", dec.Chosen, dec.Policy)

	// 3. Train SMO on the scheduled layout.
	model, stats, err := svm.Train(dec.Matrix, y, svm.Config{
		C:      1,
		Kernel: svm.KernelParams{Type: svm.Linear},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training: %d iterations, converged=%v, %d support vectors\n",
		stats.Iterations, stats.Converged, stats.NumSV)
	fmt.Printf("accuracy: %.3f\n", model.Accuracy(dec.Matrix, y, nil))
}
