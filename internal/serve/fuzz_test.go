package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
