package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/telemetry"
)

// TestScheduleTraceEndpoint exercises the acceptance path of the telemetry
// PR: a /v1/schedule decision carries a trace_id that resolves via
// GET /v1/trace/{id} to a span tree with at least one candidate span per
// measured format.
func TestScheduleTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2})
	h := s.Handler()

	w := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(60, 40, 6, 7)})
	if w.Code != http.StatusOK {
		t.Fatalf("schedule status %d: %s", w.Code, w.Body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	d := resp.Decision
	if d.TraceID == "" {
		t.Fatalf("decision has no trace_id: %s", w.Body)
	}
	if len(d.Measured) == 0 {
		t.Fatalf("hybrid miss should have measured candidates: %s", w.Body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+d.TraceID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status %d: %s", rec.Code, rec.Body)
	}
	var tr telemetry.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != d.TraceID {
		t.Fatalf("trace id %q != decision trace_id %q", tr.TraceID, d.TraceID)
	}
	count := func(name string) int {
		n := 0
		for _, sp := range tr.Spans {
			if sp.Name == name {
				n++
			}
		}
		return n
	}
	if got := count("candidate"); got < len(d.Measured) {
		t.Fatalf("%d candidate spans for %d measured formats: %s", got, len(d.Measured), rec.Body)
	}
	for _, name := range []string{"schedule", "request.parse", "cache.do", "schedule.choose"} {
		if count(name) != 1 {
			t.Fatalf("expected exactly one %q span: %s", name, rec.Body)
		}
	}

	// A cache hit still records a trace, but with no scheduler spans under
	// the cache span.
	w2 := post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(60, 40, 6, 7)})
	var resp2 ScheduleResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Decision.TraceID == "" || resp2.Decision.TraceID == d.TraceID {
		t.Fatalf("second decision should carry its own trace_id, got %q", resp2.Decision.TraceID)
	}
	tr2, ok := s.Traces().Get(resp2.Decision.TraceID)
	if !ok {
		t.Fatal("hit trace not stored")
	}
	if tree := tr2.Tree(); !strings.Contains(tree, "outcome=hit") || strings.Contains(tree, "candidate ") {
		t.Fatalf("hit trace should show the cache outcome and no candidates:\n%s", tree)
	}

	// Unknown and malformed IDs answer 404/400, never 500.
	for id, want := range map[string]int{"deadbeefdeadbeef": 404, "a/b": 400} {
		req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("trace %q: status %d, want %d: %s", id, rec.Code, want, rec.Body)
		}
	}
}

// TestServerNoGoroutineLeak drives the server through schedule, trace, and
// metrics requests, drains it, and verifies no handler or pool goroutine
// outlives the test (hand-rolled goleak-style check; satellite of the
// telemetry PR).
func TestServerNoGoroutineLeak(t *testing.T) {
	lc := telemetry.NewLeakCheck()
	ex := exec.New(2, exec.Static)
	s := NewServer(Config{Policy: core.Hybrid, TopK: 2, Exec: ex})
	h := s.Handler()
	post(t, h, "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(50, 30, 5, 11)})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	s.Drain()
	ex.Close()
	lc.Assert(t)
}

// postTraced sends body under a trace id of the caller's choosing (the
// propagation headers a forwarding peer would set), so the request's trace
// can be looked up even when the reply is an error and names none.
func postTraced(t *testing.T, h http.Handler, id, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set(cluster.TraceHeader, id)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestRootSpanRecordsOutcome: the root span of a schedule trace carries the
// status the request was answered with, and the error behind a refusal —
// also the refusals no child span records (the inline cap, a dimension
// mismatch, admission control).
func TestRootSpanRecordsOutcome(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, MaxInflight: 1})
	h := s.Handler()
	for i, tc := range []struct {
		name, path string
		body       any
		status     int
		errText    string
		busy       bool // every measurement slot taken
	}{
		{"unparseable rows", "/v1/schedule", ScheduleRequest{Data: "+1 1:x\n"}, 400, "1:x", false},
		{"over the inline cap", "/v1/schedule", ScheduleRequest{Data: hugeIndexRows}, 400, "inline-scheduling cap", false},
		{"operand over the cap", "/v1/schedule/spgemm", SpGEMMRequest{A: hugeIndexRows, B: "1 1:1\n"}, 400, "operand a", false},
		{"dimension mismatch", "/v1/schedule/spgemm", SpGEMMRequest{A: "1 3:1\n", B: "1 1:1\n"}, 400, "dimension mismatch", false},
		{"admission full", "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(50, 30, 5, 3)}, 429, "slots busy", true},
		{"spgemm admission full", "/v1/schedule/spgemm", conformablePair(40, 32, 24, 13), 429, "slots busy", true},
		{"answered", "/v1/schedule", ScheduleRequest{Data: makeLIBSVM(24, 18, 4, 11)}, 200, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.busy {
				s.sem <- struct{}{}
				defer func() { <-s.sem }()
			}
			id := fmt.Sprintf("%016x", 0xa0+i)
			if w := postTraced(t, h, id, tc.path, tc.body); w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body)
			}
			tr, ok := s.Traces().Get(id)
			if !ok {
				t.Fatal("request left no trace")
			}
			root := tr.Spans[0]
			if !slices.Contains(root.AttrList, fmt.Sprint("status=", tc.status)) {
				t.Errorf("root span does not carry the status: %v\n%s", root.AttrList, tr.Tree())
			}
			if (root.Error != "") != (tc.errText != "") || !strings.Contains(root.Error, tc.errText) {
				t.Errorf("root span error %q, want one holding %q\n%s", root.Error, tc.errText, tr.Tree())
			}
		})
	}
}

// TestTraceRecycle drives a four-trace ring through thousands of evictions
// from eight goroutines while readers fetch /v1/trace/{id} for requests
// just served: every tree fetched is one request's own — its id, parents
// before children, each span carrying exactly its attributes, the rows a
// parse span counted matching the shape class its cache span was keyed by
// — although the storage under it has held many other requests' spans.
func TestTraceRecycle(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 1, TrialRows: 4, Repeats: 1, TraceCapacity: 4})
	h := s.Handler()
	// Two shape classes, told apart by their row counts, alone and in a
	// three-item batch: traces of 3 and 10 spans share the ring.
	shapes := map[string]string{} // rows attribute -> cache key
	var bodies [][]byte
	datas := []string{makeLIBSVM(24, 18, 4, 11), makeLIBSVM(60, 40, 5, 12)}
	for _, data := range datas {
		sc := getScratch()
		feats, _, err := sc.parse([]byte(data))
		putScratch(sc)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprint("rows=", feats.M)] = "key=" + Key(feats, "hybrid", 1)
		raw, _ := json.Marshal(ScheduleRequest{Data: data})
		bodies = append(bodies, raw)
	}
	raw, _ := json.Marshal(BatchScheduleRequest{Items: []ScheduleRequest{{Data: datas[0]}, {Data: datas[1]}, {Data: datas[0]}}})
	bodies = append(bodies, raw)
	paths := []string{"/v1/schedule", "/v1/schedule", "/v1/schedule/batch"}
	for i, body := range bodies { // first contact measures
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, paths[i], bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("warm-up %s: %d %s", paths[i], w.Code, w.Body)
		}
	}

	attrKeys := map[string]string{
		"schedule": "policy status", "schedule.batch": "items status",
		"batch.item": "index chosen source", "request.parse": "rows features", "cache.do": "key outcome source",
	}
	check := func(tr telemetry.TraceJSON, id string) error {
		if tr.TraceID != id || len(tr.Spans) == 0 || tr.Spans[0].Parent != -1 {
			return fmt.Errorf("asked for %s, got %s with %d spans", id, tr.TraceID, len(tr.Spans))
		}
		if n, root := len(tr.Spans), tr.Spans[0].Name; !(root == "schedule" && n == 3) && !(root == "schedule.batch" && n == 10) {
			return fmt.Errorf("a %s trace of %d spans", root, n)
		}
		for i, sp := range tr.Spans {
			var keys []string
			for _, a := range sp.AttrList {
				k, _, _ := strings.Cut(a, "=")
				keys = append(keys, k)
			}
			if want, known := attrKeys[sp.Name]; !known || strings.Join(keys, " ") != want || sp.Error != "" {
				return fmt.Errorf("span %d %q carries %v", i, sp.Name, sp.AttrList)
			}
			if i > 0 && (sp.Parent < 0 || sp.Parent >= i) {
				return fmt.Errorf("span %d has parent %d", i, sp.Parent)
			}
			if sp.Name == "cache.do" {
				// Its parse span is its elder sibling.
				parse := tr.Spans[i-1]
				if parse.Name != "request.parse" || parse.Parent != sp.Parent || shapes[parse.AttrList[0]] != sp.AttrList[0] {
					return fmt.Errorf("span %d keyed %s after %q %v", i, sp.AttrList[0], parse.Name, parse.AttrList)
				}
			}
		}
		return nil
	}

	total := 10000
	if testing.Short() {
		total = 1600
	}
	ids := make(chan string, 64)
	// last holds each writer's final trace id, and the last trace put is one
	// of them: with one P the writers can turn the ring over before any
	// reader fetches, and these are the trees still held when they stop.
	last := make([]string, 8)
	var writers, readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < total/8; i++ {
				k := (g + i) % len(bodies)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, paths[k], bytes.NewReader(bodies[k])))
				_, rest, ok := strings.Cut(w.Body.String(), `"trace_id":"`)
				if w.Code != http.StatusOK || !ok {
					t.Errorf("%s: %d %s", paths[k], w.Code, w.Body)
					return
				}
				last[g] = rest[:16]
				select {
				case ids <- rest[:16]:
				default:
				}
			}
		}(g)
	}
	var fetched atomic.Int64
	fetch := func(id string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil))
		if w.Code == http.StatusNotFound {
			return // evicted between the reply and the fetch
		}
		var tr telemetry.TraceJSON
		if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil || w.Code != http.StatusOK {
			t.Errorf("trace %s: %d %v", id, w.Code, err)
		} else if err := check(tr, id); err != nil {
			t.Errorf("trace %s: %v\n%s", id, err, w.Body)
		} else {
			fetched.Add(1)
		}
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for id := range ids {
				fetch(id)
			}
		}()
	}
	writers.Wait()
	close(ids)
	readers.Wait()
	for _, id := range last {
		fetch(id)
	}
	if fetched.Load() == 0 || s.Traces().Evicted() < int64(total-4) {
		t.Fatalf("%d trees checked over %d evictions", fetched.Load(), s.Traces().Evicted())
	}
}
