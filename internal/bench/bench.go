// Package bench provides the measurement and reporting utilities shared by
// the benchmark harness (cmd/benchtables and bench_test.go): steady-state
// SMSV timing, speedup normalization in the style of the paper's figures,
// and aligned-table rendering.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/sparse"
)

// SampleRows draws k random rows from m to use as SMSV input vectors,
// matching how SMO draws X_high/X_low from the data matrix itself.
func SampleRows(m sparse.Matrix, k int, seed int64) []sparse.Vector {
	rows, _ := m.Dims()
	rng := rand.New(rand.NewSource(seed))
	out := make([]sparse.Vector, k)
	var buf sparse.Vector
	for i := range out {
		buf = m.RowTo(buf, rng.Intn(rows))
		out[i] = buf.Clone()
	}
	return out
}

// TimeSMSV measures the steady-state time of reps SMSV products per input
// vector on matrix m, after one warm-up pass. It returns the total duration
// across all timed products.
func TimeSMSV(m sparse.Matrix, xs []sparse.Vector, reps int, ex *exec.Exec) time.Duration {
	rows, cols := m.Dims()
	dst := make([]float64, rows)
	scratch := make([]float64, cols)
	if len(xs) > 0 {
		m.MulVecSparse(dst, xs[0], scratch, ex)
	}
	start := time.Now()
	for _, x := range xs {
		for r := 0; r < reps; r++ {
			m.MulVecSparse(dst, x, scratch, ex)
		}
	}
	return time.Since(start)
}

// TimeFormats measures TimeSMSV for every buildable basic format of the
// matrix in b and returns format → duration.
func TimeFormats(b *sparse.Builder, reps, trialRows int, ex *exec.Exec, seed int64) (map[sparse.Format]time.Duration, error) {
	csr, err := b.Build(sparse.CSR)
	if err != nil {
		return nil, err
	}
	xs := SampleRows(csr, trialRows, seed)
	out := map[sparse.Format]time.Duration{}
	for _, f := range sparse.BasicFormats {
		m, err := b.Build(f)
		if err != nil {
			continue // e.g. DIA above its memory cap: skip, like the paper's OOM cases
		}
		out[f] = bestOfThree(m, xs, reps, ex)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no basic format could be built")
	}
	return out, nil
}

// bestOfThree is the least of three TimeSMSV trials: the steady-state
// estimator, robust to GC pauses and scheduler noise on shared hosts.
func bestOfThree(m sparse.Matrix, xs []sparse.Vector, reps int, ex *exec.Exec) time.Duration {
	best := time.Duration(-1)
	for trial := 0; trial < 3; trial++ {
		if d := TimeSMSV(m, xs, reps, ex); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// SpeedupsVsSlowest normalizes times the way the paper's Figure 1 and
// Table III do: each format's speedup is slowest/format, so the worst
// format reads 1.0×.
func SpeedupsVsSlowest(times map[sparse.Format]time.Duration) map[sparse.Format]float64 {
	var slowest time.Duration
	for _, t := range times {
		if t > slowest {
			slowest = t
		}
	}
	out := make(map[sparse.Format]float64, len(times))
	for f, t := range times {
		if t > 0 {
			out[f] = float64(slowest) / float64(t)
		}
	}
	return out
}

// BestWorst returns the fastest and slowest formats in times.
func BestWorst(times map[sparse.Format]time.Duration) (best, worst sparse.Format) {
	first := true
	for f, t := range times {
		if first {
			best, worst = f, f
			first = false
			continue
		}
		if t < times[best] || (t == times[best] && f < best) {
			best = f
		}
		if t > times[worst] || (t == times[worst] && f < worst) {
			worst = f
		}
	}
	return best, worst
}

// Table is a simple aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row; cells beyond the header width are dropped, missing
// cells render empty.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// FmtX renders a speedup like the paper's tables: "6.6x", "1.0".
func FmtX(s float64) string { return fmt.Sprintf("%.1fx", s) }

// FmtDur renders a duration with 3 significant figures.
func FmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.3gus", float64(d)/1e3)
	}
}
