package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzLoadHistory checks that neither workload's history parser panics and
// that a history either one accepts round-trips through its Save.
func FuzzLoadHistory(f *testing.F) {
	f.Add("0 0 0 0 0 0 0 CSR\n")
	f.Add("1.5 -2 3 4 5 6 7 DIA\n\n0 0 0 0 0 0 0 ELL\n")
	f.Add("")
	f.Add("#layoutsched-spgemm-history v1\n0 0 0 0 0 0 0 0 0 0 0 0 gustavson/CSR/CSR\n")
	f.Fuzz(func(t *testing.T, in string) {
		roundTrip(t, in, loadHistory)
		roundTrip(t, in, loadPairHistory)
	})
}

func roundTrip[H interface {
	Save(io.Writer) error
	Len() int
}](t *testing.T, in string, load func(io.Reader) (H, error)) {
	h, err := load(strings.NewReader(in))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("save failed: %v", err)
	}
	again, err := load(&buf)
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if again.Len() != h.Len() {
		t.Fatalf("round trip changed length: %d -> %d", h.Len(), again.Len())
	}
}
