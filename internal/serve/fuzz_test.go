package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
)

// FuzzScheduleRequest throws arbitrary bodies at /v1/schedule. The contract
// under fuzz: the handler never panics its way to a 5xx — every malformed
// body is a 4xx with a JSON error — and every reply parses as JSON. The
// tiny MaxBody and trial sizes keep the measurement path (reachable via a
// fuzzed "policy":"hybrid" override) cheap enough to explore.
func FuzzScheduleRequest(f *testing.F) {
	seeds := []ScheduleRequest{
		{Profile: &FeaturesJSON{M: 100, N: 50, NNZ: 500, Density: 0.1}},
		{Data: "+1 1:0.5 3:1.25\n-1 2:2\n"},
		{Data: "+1 1:1\n", Policy: "hybrid"},
		{Data: "+1 1:1\n", Policy: "empirical"},
		{Profile: &FeaturesJSON{M: 1, N: 1, NNZ: 1, Density: 1}, Policy: "rule-based"},
	}
	for _, s := range seeds {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Error-path corpus: decode failures, validation failures, and bodies
	// that are not ScheduleRequests at all.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"profile":{"m":-1,"n":5}}`))
	f.Add([]byte(`{"profile":{"m":1,"n":1},"data":"+1 1:1\n"}`))
	f.Add([]byte(`{"data":"x 1:1\n"}`))
	f.Add([]byte(`{"data":"+1 4294967301:1\n"}`))
	f.Add([]byte(`{"policy":"nonsense","data":"+1 1:1\n"}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{"data":"+1 1:1\n","policy":"empirical","top_k":2}`)) // a field until PR 19; unknown since
	f.Add([]byte(`{"data":"+1 2147483647:1\n"}`))                       // 28 bytes declaring a 2 GiB diagonal bitmap
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"data\":\"\\u0000\"}"))

	ex := exec.New(2, exec.Static)
	f.Cleanup(ex.Close)
	s := NewServer(Config{
		Policy: core.RuleBased, Exec: ex,
		TrialRows: 8, Repeats: 1, MaxBody: 4096,
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("body %q produced %d: %s", body, w.Code, w.Body)
		}
		if !json.Valid(w.Body.Bytes()) {
			t.Fatalf("body %q produced non-JSON reply %q", body, w.Body)
		}
	})
}

// FuzzVerdictWire throws arbitrary bytes at the one rebuild of a cache
// entry from its wire form, as a lookup answer and as a gossip decision
// payload, for both workloads. The contract: the rebuild never panics; an
// input it rejects leaves the cache untouched, and gossip applies exactly
// what a lookup accepts; an accepted entry renders to a wire that rebuilds
// to the same entry, whose render is the same bytes.
func FuzzVerdictWire(f *testing.F) {
	smsv, pair := lookupReplies(f)
	f.Add(smsv)
	f.Add(pair)
	f.Add([]byte(`{"candidate":"ELL/static/fused","source":"measured"}`))
	f.Add([]byte(`{"candidate":"gustavson/CSR/CSR","source":"history","estimated_nnz":675.5,"degraded":true}`))
	f.Add([]byte(`{"candidate":"CSR","source":"predictor","confidence":0.95,"measured":[]}`))
	f.Add([]byte(`{"candidate":"CSR/static/fused","source":"cache"}`)) // a reply word, not a rung
	f.Add([]byte(`{"candidate":"CSR/static/fused","source":""}`))
	f.Add([]byte(`{"candidate":"gustavson/","source":"measured"}`))
	f.Add([]byte(`{"candidate":"CSR","source":"model","measured":{"a":1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`not json`))

	s := newTestServer(f, Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkVerdictWire(t, s, &s.smsv, cluster.KindDecision, data)
		checkVerdictWire(t, s, &s.pair, cluster.KindSpGEMM, data)
	})
}

func checkVerdictWire[In any, C candidate, R evidenceRow[C, R]](t *testing.T, s *Server, w *workload[In, C, R], kind string, data []byte) {
	t.Helper()
	w.cache = newDecisionCache[*Cached[C, R]](s.cfg)
	val, err := w.fromWire(data)
	applied := s.replApply[kind](cluster.ReplEntry{Kind: kind, Key: "k", Payload: data})
	if applied != (err == nil) || w.cache.Peek([]byte("k")) != applied {
		t.Fatalf("%s %q: lookup rebuild err %v, but gossip applied %v (cached %v)",
			kind, data, err, applied, w.cache.Peek([]byte("k")))
	}
	if err != nil {
		return
	}
	render := func(val *Cached[C, R]) []byte {
		var out wire
		dw := val.wire()
		out.verdict(&dw)
		return out.b
	}
	first := render(val)
	again, err := w.fromWire(first)
	if err != nil {
		t.Fatalf("%s %q: render %s does not rebuild: %v", kind, data, first, err)
	}
	_, ev := val.evidence()
	_, evAgain := again.evidence()
	if !reflect.DeepEqual(again.Verdict, val.Verdict) || again.Degraded != val.Degraded || !bytes.Equal(evAgain, ev) {
		t.Fatalf("%s %q: entry %+v (evidence %s) rebuilt as %+v (evidence %s)", kind, data, val, ev, again, evAgain)
	}
	if second := render(again); !bytes.Equal(second, first) {
		t.Fatalf("%s %q: render %s, then %s", kind, data, first, second)
	}
}
