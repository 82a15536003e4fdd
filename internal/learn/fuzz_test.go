package learn

import (
	"bytes"
	"io"
	"testing"
)

// FuzzLoadForest feeds every input to both workloads' model loaders: a
// loader never panics, a model it accepts saves and loads back to the same
// bytes, and no file is accepted by both — the kind and the width keep the
// two model files apart.
func FuzzLoadForest(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new coverage,
	// which a multi-kilobyte golden model would make the bulk of a run.
	f.Add([]byte(`{"version":2,"dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`))
	f.Add([]byte(`{"version":2,"dims":7,"trained_examples":3,"trees":[{"nodes":[{"feat":2,"thresh":0.5,"left":1,"right":2},{"feat":-1,"label":"CSR/guided/fused","purity":0.5},{"feat":-1,"label":"DIA","purity":1}]}]}`))
	f.Add([]byte(`{"version":1,"kind":"spgemm-pair","dims":12,"trees":[{"nodes":[{"feat":-1,"label":"gustavson/CSR/CSR","purity":1}]}]}`))
	f.Add([]byte(`{"version":2,"kind":"spgemm-pair","dims":7,"trees":[{"nodes":[{"feat":-1,"label":"CSR","purity":1}]}]}`))
	f.Add([]byte(`{"version":`))
	f.Fuzz(func(t *testing.T, in []byte) {
		smsv := stable(t, in, Load)
		pair := stable(t, in, LoadPair)
		if smsv && pair {
			t.Fatalf("both loaders accepted %q", in)
		}
	})
}

// stable reports whether load accepts in, and fails t unless an accepted
// model saves to bytes that load back and save again unchanged.
func stable[F interface{ Save(io.Writer) error }](t *testing.T, in []byte, load func(io.Reader) (F, error)) bool {
	t.Helper()
	f, err := load(bytes.NewReader(in))
	if err != nil {
		return false
	}
	var first, second bytes.Buffer
	if err := f.Save(&first); err != nil {
		t.Fatalf("save of an accepted model: %v", err)
	}
	again, err := load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("saved model does not load back: %v\n%s", err, first.Bytes())
	}
	if err := again.Save(&second); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("save→load→save changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
	}
	return true
}
