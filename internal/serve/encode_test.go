package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// encodeVia runs one of the three reply encoders and reports its bytes, or
// nil when it refused the value for a NaN or an infinity.
func encodeVia(reply func(w *wire)) []byte {
	var w wire
	reply(&w)
	if w.nonFinite {
		return nil
	}
	return w.b
}

// wantReply is the oracle: json.Marshal of the exported struct plus the
// newline json.Encoder ends a value with; nil when the library refuses it.
func wantReply(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		if !errors.As(err, new(*json.UnsupportedValueError)) {
			t.Fatalf("json.Marshal: %v", err)
		}
		return nil
	}
	return append(raw, '\n')
}

// preRender renders what a handler would have as bytes before it builds the
// reply: the measured rows, as a cache entry's evidence renders them, and
// the trace lines, as traceLines notes them.
func preRender[R interface{ appendTo(*wire) }](rows []R, trace []string) rendered {
	var ev evidence[R]
	_, measured := ev.render(func() []R { return rows })
	var tl traceLines
	for _, line := range trace {
		tl.text(line).end()
	}
	return rendered{measured: measured, trace: tl.elems}
}

func diffSchedule(t *testing.T, resp *ScheduleResponse) {
	t.Helper()
	want := wantReply(t, resp)
	d := &resp.Decision
	for name, pre := range map[string]rendered{
		"struct":   {},
		"rendered": preRender(d.Measured, d.Trace),
	} {
		if got := encodeVia(func(w *wire) { w.scheduleReply(d, pre) }); !bytes.Equal(got, want) {
			t.Fatalf("ScheduleResponse (%s fields)\n got: %q\nwant: %q", name, got, want)
		}
	}
}

func diffSpGEMM(t *testing.T, resp *SpGEMMResponse) {
	t.Helper()
	want := wantReply(t, resp)
	d := &resp.Decision
	for name, pre := range map[string]rendered{
		"struct":   {},
		"rendered": preRender(d.Measured, d.Trace),
	} {
		if got := encodeVia(func(w *wire) { w.spgemmReply(d, pre) }); !bytes.Equal(got, want) {
			t.Fatalf("SpGEMMResponse (%s fields)\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// diffBatch skips slots no handler produces (neither or both of decision
// and error) by giving them an error.
func diffBatch(t *testing.T, resp *BatchScheduleResponse) {
	t.Helper()
	if resp.Decisions == nil {
		resp.Decisions = []BatchItemResult{}
	}
	for i := range resp.Decisions {
		if slot := &resp.Decisions[i]; (slot.Decision == nil) == (slot.Error == "") {
			slot.Decision, slot.Error = nil, "neither"
		}
	}
	want := wantReply(t, resp)
	got := encodeVia(func(w *wire) {
		w.batchOpen()
		for i, slot := range resp.Decisions {
			var pre rendered
			if slot.Decision != nil {
				pre = preRender(slot.Decision.Measured, nil)
			}
			w.batchItem(i, slot.Decision, pre, slot.Error)
		}
		w.batchClose(resp.TraceID)
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("BatchScheduleResponse\n got: %q\nwant: %q", got, want)
	}
}

// nasty holds what a string escaper can get wrong: the HTML trio, the quote
// and the backslash, control characters with and without a short escape,
// DEL, the two separators JSON escapes unconditionally, a raw 0xFF, a
// truncated multi-byte sequence and plain non-ASCII.
const nasty = "<a href=\"x\">&\\ \b\f\n\r\t\x00\x1f\x7f \u2028 \u2029 \xff \xe2\x82 40×30 ✓"

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e20, 999999999999999900000, 1e-6, 1e-7, 9.999e-7,
	1.5e-9, 1e-10, 1e100, -1e-100, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	3.4285714285714284, 24756.38299599466, math.NaN(), math.Inf(1), math.Inf(-1),
}

var goldenResponses = []string{
	"schedule_measured.json", "schedule_hit.json",
	"batch_measured.json", "batch_hit.json",
	"spgemm_measured.json", "spgemm_hit.json",
}

// TestEncodeDecision holds the append encoder to encoding/json on the wire
// fixtures and on the decisions and values the fixtures do not reach.
func TestEncodeDecision(t *testing.T) {
	// Each fixture is canonical output, so decoding it and encoding the
	// struct again must give the fixture back — through the library and
	// through the encoder alike.
	for _, name := range goldenResponses {
		raw, err := os.ReadFile("testdata/golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		switch name[:5] {
		case "sched":
			var resp ScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			diffSchedule(t, &resp)
			got = encodeVia(func(w *wire) { w.scheduleReply(&resp.Decision, rendered{}) })
		case "batch":
			var resp BatchScheduleResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			diffBatch(t, &resp)
			got = wantReply(t, &resp)
		case "spgem":
			var resp SpGEMMResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			diffSpGEMM(t, &resp)
			got = encodeVia(func(w *wire) { w.spgemmReply(&resp.Decision, rendered{}) })
		}
		if !bytes.Equal(got, raw) {
			t.Errorf("%s does not survive decode and re-encode\n got: %s\nwant: %s", name, got, raw)
		}
	}

	feats := FeaturesJSON{M: 24, N: 14, NNZ: 96, Ndig: 28, Dnnz: 3.4285714285714284, Mdim: 4, Adim: 4, Density: 0.2857142857142857}
	base := DecisionJSON{Policy: "hybrid", Chosen: "ELL", Chunk: "static", Variant: "fused", Features: feats, Source: "cache"}
	for name, mutate := range map[string]func(d *DecisionJSON){
		"bare":      func(d *DecisionJSON) {},
		"degraded":  func(d *DecisionJSON) { d.Degraded, d.Source = true, "history" },
		"predictor": func(d *DecisionJSON) { d.Source, d.Confidence = "predictor", 0.84 },
		"empty measured": func(d *DecisionJSON) {
			d.Measured, d.Estimates, d.Trace = []MeasurementJSON{}, []EstimateJSON{}, []string{}
		},
		"format-only rows": func(d *DecisionJSON) {
			d.Measured = []MeasurementJSON{{Format: "CSR", Nanos: 120, Millis: 0.00012}, {Format: "COO"}}
		},
		"nasty strings": func(d *DecisionJSON) {
			d.Policy, d.Chosen, d.Chunk, d.Variant, d.Source, d.TraceID = nasty, nasty, nasty, nasty, nasty, nasty
			d.Trace = []string{nasty, "", "cluster: owner " + nasty + " unreachable, deciding locally"}
			d.Estimates = []EstimateJSON{{Format: nasty}}
			d.Measured = []MeasurementJSON{{Format: nasty, Chunk: nasty, Variant: nasty}}
		},
	} {
		d := base
		mutate(&d)
		t.Run(name, func(t *testing.T) {
			diffSchedule(t, &ScheduleResponse{Decision: d})
			diffBatch(t, &BatchScheduleResponse{TraceID: d.TraceID, Decisions: []BatchItemResult{
				{Decision: &d}, {Error: nasty}, {Error: "give a profile or inline LIBSVM data"}, {Decision: &base},
			}})
		})
	}
	diffBatch(t, &BatchScheduleResponse{})

	pair := SpGEMMDecisionJSON{Policy: "hybrid", Chosen: "gustavson/CSR/CSR", Dataflow: "gustavson",
		AFormat: "CSR", BFormat: "CSR", AFeatures: feats, BFeatures: feats, Source: "measured",
		EstimatedNNZ: 412.5, OutputNNZ: 398}
	diffSpGEMM(t, &SpGEMMResponse{Decision: pair}) // "estimates":null
	pair.Estimates = []PairEstimateJSON{{Candidate: nasty, Dataflow: nasty, AFormat: nasty, BFormat: nasty, Cost: 1e21}}
	pair.Measured = []PairMeasurementJSON{{Candidate: nasty, Nanos: -1, Millis: 1e-7}}
	pair.Trace, pair.Degraded, pair.Confidence, pair.TraceID = []string{nasty}, true, 0.5, "00000000000000a1"
	diffSpGEMM(t, &SpGEMMResponse{Decision: pair})

	for _, x := range nastyFloats {
		d := base
		d.Confidence, d.Features.Dnnz, d.Features.Vdim = x, x, -x
		d.Estimates = []EstimateJSON{{Format: "CSR", Weight: x, Imbalance: x / 3, Cost: x * 7}}
		d.Measured = []MeasurementJSON{{Format: "CSR", Millis: x}}
		diffSchedule(t, &ScheduleResponse{Decision: d})
		p := pair
		p.Confidence, p.EstimatedNNZ, p.Estimates[0].Cost, p.Measured[0].Millis = x, x, x, x
		diffSpGEMM(t, &SpGEMMResponse{Decision: p})
	}
}

// FuzzEncodeDecision is the differential that keeps the append encoder
// byte-identical to encoding/json: body is decoded as each of the three
// replies, salted with a string, a float and an integer no JSON body can
// deliver (invalid UTF-8, NaN, -0), and encoded both ways.
func FuzzEncodeDecision(f *testing.F) {
	for _, name := range goldenResponses {
		raw, err := os.ReadFile("testdata/golden/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, "", 0.0, int64(0))
		f.Add(raw, nasty, 1e-7, int64(math.MinInt64))
	}
	for i, x := range nastyFloats {
		f.Add([]byte(`{"decision":{"measured":[{}],"estimates":[{}],"trace":["a"]},"decisions":[{"decision":{}},{"error":"x"}]}`),
			nasty[i%len(nasty):], x, int64(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, s string, x float64, n int64) {
		salt := func(d *DecisionJSON) {
			if s != "" {
				d.Policy, d.Source, d.Trace = d.Policy+s, s, append(d.Trace, s)
			}
			if x != 0 || math.Signbit(x) {
				d.Confidence, d.Features.Vdim = x, x
			}
			if n != 0 {
				d.Features.NNZ = n
			}
			if len(d.Estimates) > 0 {
				d.Estimates[0].Format, d.Estimates[0].Cost, d.Estimates[0].Bytes = s, x, n
			}
			if len(d.Measured) > 0 {
				d.Measured[0].Chunk, d.Measured[0].Millis, d.Measured[0].Nanos = s, x, n
			}
		}
		var sr ScheduleResponse
		if json.Unmarshal(body, &sr) == nil {
			salt(&sr.Decision)
			diffSchedule(t, &sr)
		}
		var br BatchScheduleResponse
		if json.Unmarshal(body, &br) == nil {
			for i, slot := range br.Decisions {
				if slot.Decision != nil {
					salt(slot.Decision)
				} else if slot.Error != "" {
					br.Decisions[i].Error += s
				}
			}
			br.TraceID += s
			diffBatch(t, &br)
		}
		var pr SpGEMMResponse
		if json.Unmarshal(body, &pr) == nil {
			d := &pr.Decision
			if s != "" {
				d.Chosen, d.BFormat, d.Trace = s, d.BFormat+s, append(d.Trace, s)
			}
			if x != 0 || math.Signbit(x) {
				d.EstimatedNNZ, d.AFeatures.Adim = x, x
			}
			d.OutputNNZ = n
			if len(d.Estimates) > 0 {
				d.Estimates[0].Candidate, d.Estimates[0].Cost = s, x
			}
			if len(d.Measured) > 0 {
				d.Measured[0].Candidate, d.Measured[0].Millis, d.Measured[0].Nanos = s, x, n
			}
			diffSpGEMM(t, &pr)
		}
	})
}

// TestEvidenceRenderedOnce pins what a cache entry renders once and every
// hit then shares: rows fastest first with ties by candidate string — the
// order encodeMeasured gives — and the JSON of exactly those rows, for both
// workloads; and nothing at all for an entry that arrived by gossip, which
// carries a verdict without evidence.
func TestEvidenceRenderedOnce(t *testing.T) {
	csr := sparse.Candidate{Format: sparse.CSR, Variant: sparse.VariantFused}
	smsv := &CachedDecision{Verdict: core.Verdict[sparse.Candidate]{Candidate: csr, Rung: core.RungMeasured, Measured: map[sparse.Candidate]time.Duration{
		{Format: sparse.ELL}: 900, {Format: sparse.COO}: 400, csr: 400, {Format: sparse.DEN}: 400, {Format: sparse.DIA}: 1,
	}}}
	rows, raw := smsv.evidence()
	if want := encodeMeasured[sparse.Candidate, MeasurementJSON](smsv.Measured); !equalJSON(t, rows, want) || len(rows) != 5 {
		t.Fatalf("rows %+v, want encodeMeasured's %+v", rows, want)
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.Nanos > b.Nanos || a.Nanos == b.Nanos && a.Format+"/"+a.Chunk+"/"+a.Variant >= b.Format+"/"+b.Chunk+"/"+b.Variant {
			t.Fatalf("rows %d and %d out of order: %+v, %+v", i-1, i, a, b)
		}
	}
	if want, _ := json.Marshal(rows); !bytes.Equal(raw, want) {
		t.Fatalf("rendered %s, want %s", raw, want)
	}
	if again, raw2 := smsv.evidence(); &again[0] != &rows[0] || &raw2[0] != &raw[0] {
		t.Fatal("evidence was rendered twice")
	}

	g, o := spgemm.Candidate{Dataflow: spgemm.Gustavson}, spgemm.Candidate{Dataflow: spgemm.OuterProduct}
	pair := &CachedPairDecision{Verdict: core.Verdict[spgemm.Candidate]{Candidate: g, Rung: core.RungMeasured,
		Measured: map[spgemm.Candidate]time.Duration{o: 70, g: 70, {Dataflow: spgemm.InnerProduct}: 5}}}
	prows, praw := pair.evidence()
	if want := encodeMeasured[spgemm.Candidate, PairMeasurementJSON](pair.Measured); !equalJSON(t, prows, want) || len(prows) != 3 ||
		prows[0].Nanos != 5 || prows[1].Candidate >= prows[2].Candidate {
		t.Fatalf("pair rows %+v, want encodeMeasured's %+v", prows, want)
	}
	if want, _ := json.Marshal(prows); !bytes.Equal(praw, want) {
		t.Fatalf("rendered %s, want %s", praw, want)
	}

	// Gossip-applied entries, and the zero entry the benchmark caches.
	peers, err := cluster.NewPeers("n1", []cluster.Member{{ID: "n1", Addr: "http://127.0.0.1:1"}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer peers.Stop()
	s := newTestServer(t, Config{Cluster: peers})
	payload, _ := json.Marshal(decisionWire{Candidate: csr.String(), Source: "measured"})
	if !s.replApply[cluster.KindDecision](cluster.ReplEntry{Kind: cluster.KindDecision, Key: "k", Payload: payload}) {
		t.Fatal("gossip entry refused")
	}
	applied, ok := s.smsv.cache.Get([]byte("k"))
	if !ok {
		t.Fatal("gossip entry not cached")
	}
	for name, val := range map[string]*CachedDecision{"gossip": applied, "zero": {}} {
		if rows, raw := val.evidence(); rows != nil || raw != nil {
			t.Fatalf("%s entry rendered evidence it does not have: %+v %s", name, rows, raw)
		}
	}
	if rows, raw := (&CachedPairDecision{}).evidence(); rows != nil || raw != nil {
		t.Fatalf("zero pair entry rendered evidence: %+v %s", rows, raw)
	}
}

func equalJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ra, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ra, rb)
}

// FuzzEncodeForward holds the forward hop's bodies to encoding/json, so an
// owner of any build decodes them as it always has: a rows leg is
// json.Marshal of the exported request with its policy pinned, a lookup leg
// of its key's lookupRequest, and an owner's answer of its decisionWire plus
// the newline writeJSON ends a value with — refused, like the library, when
// a float is not finite.
func FuzzEncodeForward(f *testing.F) {
	f.Add("+1 1:0.5 3:1.25\n-1 2:2\n", "1 2:1\n", "hybrid", "gustavson/CSR/CSR", 0.84, int64(398))
	f.Add(nasty, nasty, nasty, nasty, 1e-7, int64(math.MinInt64))
	f.Add("", "", "", "", 0.0, int64(0))
	for i, x := range nastyFloats {
		f.Add(nasty[i%len(nasty):], "v2|hybrid/0|1,2,3", "predict", "CSR/static/fused", x, int64(i))
	}
	f.Fuzz(func(t *testing.T, a, b, policy, candidate string, x float64, n int64) {
		var w wire
		same := func(what string, got []byte, v any, suffix string) {
			t.Helper()
			want, err := json.Marshal(v)
			if err != nil {
				if !errors.As(err, new(*json.UnsupportedValueError)) {
					t.Fatalf("%s: json.Marshal: %v", what, err)
				}
				want = nil
			} else {
				want = append(want, suffix...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s\n got: %q\nwant: %q", what, got, want)
			}
		}
		w.scheduleBody([]byte(a), policy)
		same("schedule rows leg", w.b, ScheduleRequest{Data: a, Policy: policy}, "")
		w.spgemmBody([]byte(a), []byte(b), policy)
		same("spgemm rows leg", w.b, SpGEMMRequest{A: a, B: b, Policy: policy}, "")
		same("lookup leg", appendLookupBody(nil, []byte(b)), lookupRequest{Key: b}, "")

		// The evidence an owner rendered, as its cache entry renders it.
		measured := preRender([]PairMeasurementJSON{{Candidate: candidate, Nanos: n, Millis: float64(n) / 1e6}}, nil).measured
		dw := decisionWire{Candidate: candidate, Source: a, Confidence: x, EstimatedNNZ: -x,
			OutputNNZ: n, Degraded: n%2 != 0, Measured: measured}
		if n%3 == 0 {
			dw.Measured = nil
		}
		w.verdict(&dw)
		if w.nonFinite {
			w.b = nil
		}
		same("lookup answer", w.b, dw, "\n")
	})
}
