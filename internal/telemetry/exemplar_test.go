package telemetry

import (
	"strings"
	"testing"
)

// exposition renders the registry as text for exemplar round-trip checks.
func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestHistogramExemplarRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "request latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, "0123456789abcdef", "node-a")
	h.ObserveExemplar(0.5, "fedcba9876543210", "")
	h.ObserveExemplar(5, "00000000000000aa", "node-b") // +Inf bucket

	text := exposition(t, r)
	if errs := Lint(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exemplar exposition does not lint: %v\n%s", errs, text)
	}
	for _, want := range []string{
		`# {trace_id="0123456789abcdef",node="node-a"} 0.05`,
		`# {trace_id="fedcba9876543210"} 0.5`,
		`le="+Inf"} 4 # {trace_id="00000000000000aa",node="node-b"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}

	// The scrape side must both ignore exemplars (histogram math) and be
	// able to extract them (loadgen's blown-p99 attribution).
	snap, ok := ParseHistogram(text, "req_seconds", nil)
	if !ok {
		t.Fatalf("ParseHistogram failed on exemplar-bearing payload:\n%s", text)
	}
	if snap.Count != 4 {
		t.Fatalf("parsed count %g, want 4", snap.Count)
	}
	exs := ParseExemplars(text, "req_seconds")
	if len(exs) != 3 {
		t.Fatalf("parsed %d exemplars, want 3: %+v", len(exs), exs)
	}
	byTrace := map[string]ScrapedExemplar{}
	for _, e := range exs {
		byTrace[e.TraceID] = e
	}
	if e := byTrace["0123456789abcdef"]; e.Node != "node-a" || e.Value != 0.05 || e.Series["le"] != "0.1" {
		t.Fatalf("exemplar mismatch: %+v", e)
	}
	if e := byTrace["00000000000000aa"]; e.Series["le"] != "+Inf" || e.Value != 5 {
		t.Fatalf("+Inf exemplar mismatch: %+v", e)
	}
}

func TestExemplarLastObservationWins(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", "", []float64{1})
	h.ObserveExemplar(0.5, "1111111111111111", "")
	h.ObserveExemplar(0.7, "2222222222222222", "")
	text := exposition(t, r)
	if strings.Contains(text, "1111111111111111") || !strings.Contains(text, "2222222222222222") {
		t.Fatalf("last observation should win:\n%s", text)
	}
}

// TestObserveExemplarAllocatesNothing: every served request records one, so
// the slot keeps the observation's parts and only a scrape builds the
// Exemplar; the node label still comes out after the trace id.
func TestObserveExemplarAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("z_seconds", "", []float64{1})
	if allocs := testing.AllocsPerRun(100, func() { h.ObserveExemplar(0.5, "3333333333333333", "n2") }); allocs != 0 {
		t.Fatalf("ObserveExemplar allocates %.0f objects", allocs)
	}
	if text := exposition(t, r); !strings.Contains(text, `# {trace_id="3333333333333333",node="n2"} 0.5`) {
		t.Fatalf("exemplar lost its labels:\n%s", text)
	}
}

func TestExemplarWithoutTraceIDIsPlainObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("y_seconds", "", []float64{1})
	h.ObserveExemplar(0.5, "", "node-a")
	text := exposition(t, r)
	if strings.Contains(text, " # {") {
		t.Fatalf("no exemplar should be retained without a trace id:\n%s", text)
	}
	if !strings.Contains(text, "y_seconds_count 1\n") {
		t.Fatalf("observation lost:\n%s", text)
	}
}

func TestLintCatchesBadExemplars(t *testing.T) {
	for name, payload := range map[string]string{
		"non-bucket": "# TYPE a counter\na_total 1 # {trace_id=\"0123456789abcdef\"} 1\n",
		"bad trace id": "# TYPE b histogram\n" +
			"b_bucket{le=\"1\"} 1 # {trace_id=\"nope\"} 0.5\n" +
			"b_bucket{le=\"+Inf\"} 1\nb_sum 0.5\nb_count 1\n",
		"value over bound": "# TYPE c histogram\n" +
			"c_bucket{le=\"1\"} 1 # {trace_id=\"0123456789abcdef\"} 2.5\n" +
			"c_bucket{le=\"+Inf\"} 1\nc_sum 0.5\nc_count 1\n",
		"malformed labels": "# TYPE d histogram\n" +
			"d_bucket{le=\"1\"} 1 # {trace_id=0123} 0.5\n" +
			"d_bucket{le=\"+Inf\"} 1\nd_sum 0.5\nd_count 1\n",
	} {
		if errs := Lint(strings.NewReader(payload)); len(errs) == 0 {
			t.Errorf("%s: lint accepted bad exemplar:\n%s", name, payload)
		}
	}
	good := "# TYPE e histogram\n" +
		"e_bucket{le=\"1\"} 1 # {trace_id=\"0123456789abcdef\",node=\"n1\"} 0.5\n" +
		"e_bucket{le=\"+Inf\"} 1\ne_sum 0.5\ne_count 1\n"
	if errs := Lint(strings.NewReader(good)); len(errs) > 0 {
		t.Fatalf("lint rejected good exemplar: %v", errs)
	}
}
