package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadHistory checks the history parser never panics and accepted
// histories round-trip.
func FuzzLoadHistory(f *testing.F) {
	f.Add("0 0 0 0 0 0 0 CSR\n")
	f.Add("1.5 -2 3 4 5 6 7 DIA\n\n0 0 0 0 0 0 0 ELL\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := loadHistory(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			t.Fatalf("save failed: %v", err)
		}
		again, err := loadHistory(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Len() != h.Len() {
			t.Fatalf("round trip changed length: %d -> %d", h.Len(), again.Len())
		}
	})
}
