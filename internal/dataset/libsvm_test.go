package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sparse"
)

func TestParseLIBSVMBasic(t *testing.T) {
	in := `+1 1:0.5 3:1.25
-1 2:2
# comment line

+1 5:-0.75
`
	samples, n, err := ParseLIBSVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || n != 5 {
		t.Fatalf("got %d samples, n=%d", len(samples), n)
	}
	if samples[0].Label != 1 || samples[1].Label != -1 {
		t.Fatalf("labels wrong: %+v", samples)
	}
	if samples[0].Features.NNZ() != 2 || samples[0].Features.Index[1] != 2 {
		t.Fatalf("sample 0 features wrong: %+v", samples[0].Features)
	}
	for _, s := range samples {
		if s.Features.Dim != 5 {
			t.Fatalf("dim not fixed up: %+v", s.Features)
		}
		if err := s.Features.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseLIBSVMErrors(t *testing.T) {
	// Every malformed shape must be rejected with an explicit error that
	// names the line and the offending token — never silently skipped.
	cases := []struct {
		name    string
		in      string
		wantMsg string
	}{
		{"bad label", "abc 1:2\n", `bad label "abc"`},
		{"nan label", "nan 1:2\n", `non-finite label "nan"`},
		{"inf label", "+inf 1:2\n", `non-finite label "+inf"`},
		{"missing colon", "+1 12\n", `feature "12" missing ':'`},
		{"double colon", "+1 1:2:3\n", `feature "1:2:3" has more than one ':'`},
		{"zero index", "+1 0:3\n", `index "0" is not a positive integer`},
		{"negative index", "+1 -2:3\n", `index "-2" is not a positive integer`},
		{"fractional index", "+1 1.5:3\n", `index "1.5" is not a positive integer`},
		{"empty index", "+1 :3\n", `index "" is not a positive integer`},
		{"bad value", "+1 1:xyz\n", `feature "1:xyz": bad value "xyz"`},
		{"empty value", "+1 1:\n", `feature "1:": bad value ""`},
		{"nan value", "+1 1:nan\n", `feature "1:nan": non-finite value`},
		{"inf value", "+1 1:-inf\n", `feature "1:-inf": non-finite value`},
		{"unsorted indices", "+1 3:1 2:1\n", "feature index 2 after 3: indices must be strictly ascending"},
		{"duplicate index", "+1 2:1 2:5\n", "duplicate feature index 2"},
	}
	for _, tc := range cases {
		_, _, err := ParseLIBSVM(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantMsg)
		}
		if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %q does not name the line", tc.name, err)
		}
	}
	// The line number must track real (non-comment, non-blank) input.
	_, _, err := ParseLIBSVM(strings.NewReader("# header\n+1 1:1\n\n+1 bad\n"))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("line numbering wrong: %v", err)
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	orig := make([]Sample, 20)
	for i := range orig {
		label := float64(1)
		if i%3 == 0 {
			label = -1
		}
		v := sparse.Vector{Dim: 40}
		for j := 0; j < 40; j++ {
			if rng.Float64() < 0.25 {
				v = v.Append(int32(j), float64(rng.Intn(100)+1)/4)
			}
		}
		orig[i] = Sample{Label: label, Features: v}
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := ParseLIBSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(orig) {
		t.Fatalf("%d samples, want %d", len(parsed), len(orig))
	}
	for i := range orig {
		if parsed[i].Label != orig[i].Label {
			t.Fatalf("sample %d label %v != %v", i, parsed[i].Label, orig[i].Label)
		}
		if len(parsed[i].Features.Index) != len(orig[i].Features.Index) {
			t.Fatalf("sample %d nnz differs", i)
		}
		for k := range orig[i].Features.Index {
			if parsed[i].Features.Index[k] != orig[i].Features.Index[k] ||
				parsed[i].Features.Value[k] != orig[i].Features.Value[k] {
				t.Fatalf("sample %d entry %d differs", i, k)
			}
		}
	}
}

func TestSamplesToMatrix(t *testing.T) {
	in := "+1 1:1 2:2\n-1 3:3\n"
	samples, n, err := ParseLIBSVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b, y := SamplesToMatrix(samples, n)
	m := b.MustBuild(sparse.CSR)
	rows, cols := m.Dims()
	if rows != 2 || cols != 3 || m.NNZ() != 3 {
		t.Fatalf("matrix %dx%d nnz=%d", rows, cols, m.NNZ())
	}
	if y[0] != 1 || y[1] != -1 {
		t.Fatalf("labels %v", y)
	}
}

func TestPlantedLabelsBothClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d, _ := ByName("adult")
	m := d.MustGenerate(3).MustBuild(sparse.CSR)
	y := PlantedLabels(m, 0.05, rng)
	var pos, neg int
	for _, l := range y {
		switch l {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %v not in {-1,+1}", l)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate labels: %d pos, %d neg", pos, neg)
	}
}
