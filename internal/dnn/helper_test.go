package dnn

import (
	"math/rand"

	"repro/internal/exec"
)

// testRand returns a fixed-seed RNG for deterministic tests.
func testRand() *rand.Rand { return rand.New(rand.NewSource(123)) }

// MLP builds a plain two-hidden-layer perceptron over flattened input.
func MLP(classes, inFeatures, hidden int, ex *exec.Exec, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(
		NewFlatten(),
		NewDense(inFeatures, hidden, ex, rng),
		NewReLU(),
		NewDense(hidden, hidden/2, ex, rng),
		NewReLU(),
		NewDense(hidden/2, classes, ex, rng),
	)
}
