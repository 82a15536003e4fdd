package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sparse"
)

func testBuilder(t *testing.T) *sparse.Builder {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	b := sparse.NewBuilder(50, 30)
	for i := 0; i < 50; i++ {
		for j := 0; j < 30; j++ {
			if rng.Float64() < 0.2 {
				b.Add(i, j, rng.NormFloat64()+0.1)
			}
		}
	}
	return b
}

func TestSampleRows(t *testing.T) {
	b := testBuilder(t)
	m := b.MustBuild(sparse.CSR)
	xs := SampleRows(m, 5, 42)
	if len(xs) != 5 {
		t.Fatalf("%d samples", len(xs))
	}
	for _, x := range xs {
		if x.Dim != 30 {
			t.Fatalf("sample dim %d", x.Dim)
		}
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic for a fixed seed.
	ys := SampleRows(m, 5, 42)
	for i := range xs {
		if xs[i].NNZ() != ys[i].NNZ() {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestTimeFormatsAndSpeedups(t *testing.T) {
	b := testBuilder(t)
	times, err := TimeFormats(b, 2, 3, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("timed %d formats, want 5", len(times))
	}
	sp := SpeedupsVsSlowest(times)
	var sawOne bool
	for f, s := range sp {
		if s < 1.0-1e-9 {
			t.Fatalf("%v speedup %v < 1", f, s)
		}
		if s == 1.0 {
			sawOne = true
		}
	}
	if !sawOne {
		t.Fatal("no format normalized to 1.0 (the slowest)")
	}
	best, worst := BestWorst(times)
	if times[best] > times[worst] {
		t.Fatal("BestWorst inverted")
	}
}

func TestBestWorstDeterministicOnTies(t *testing.T) {
	times := map[sparse.Format]time.Duration{
		sparse.DEN: 100, sparse.CSR: 100, sparse.COO: 100,
	}
	b1, w1 := BestWorst(times)
	for i := 0; i < 10; i++ {
		b2, w2 := BestWorst(times)
		if b1 != b2 || w1 != w2 {
			t.Fatal("BestWorst not deterministic on ties")
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Add("beta", "2.5")
	tb.Add("gamma") // short row
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## Demo", "name", "alpha", "beta", "2.5", "gamma"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if FmtX(6.63) != "6.6x" {
		t.Fatalf("FmtX: %q", FmtX(6.63))
	}
	if got := FmtDur(1500 * time.Millisecond); got != "1.5s" {
		t.Fatalf("FmtDur s: %q", got)
	}
	if got := FmtDur(2500 * time.Microsecond); got != "2.5ms" {
		t.Fatalf("FmtDur ms: %q", got)
	}
	if got := FmtDur(800 * time.Nanosecond); got != "0.8us" {
		t.Fatalf("FmtDur us: %q", got)
	}
}
