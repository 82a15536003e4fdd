package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/sparse"
)

// diffEnvelope decodes body twice — the way the handlers do (in place when
// plain, through the library otherwise) and the way they used to
// (json.Decoder + DisallowUnknownFields into the exported struct T) — and
// requires the same verdict, the same error reply, and the same decoded
// profile, policy and operand text.
func diffEnvelope[T wireRequest](t *testing.T, s *Server, body []byte, allowed fieldSet) {
	t.Helper()
	var want T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(&want)

	sc := getScratch()
	defer putScratch(sc)
	w := httptest.NewRecorder()
	// The decoder rewrites its buffer; body stays the fuzzer's.
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(bytes.Clone(body)))
	env, ok := decodeEnvelope[T](s, sc, w, r, allowed)
	if ok != (wantErr == nil) {
		t.Fatalf("%T %q: accepted=%v, library error %v", want, body, ok, wantErr)
	}
	if !ok {
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest ||
			er.Error != fmt.Sprintf("bad request body: %v", wantErr) {
			t.Fatalf("%T %q: replied %d %q, library error %v", want, body, w.Code, w.Body, wantErr)
		}
		return
	}
	wantEnv := want.envelope()
	if !sameEnvelope(env, wantEnv) {
		t.Fatalf("%T %q:\n decoded %s\n library %s", want, body, showEnvelope(env), showEnvelope(wantEnv))
	}
	if len(env.items) != len(wantEnv.items) {
		t.Fatalf("%T %q: %d items, library %d", want, body, len(env.items), len(wantEnv.items))
	}
	for i := range env.items {
		if !sameEnvelope(env.items[i], wantEnv.items[i]) {
			t.Fatalf("%T %q: item %d\n decoded %s\n library %s", want, body, i, showEnvelope(env.items[i]), showEnvelope(wantEnv.items[i]))
		}
	}
}

func sameEnvelope(a, b envelope) bool {
	return reflect.DeepEqual(a.profile, b.profile) && a.policy == b.policy &&
		bytes.Equal(a.data, b.data) && bytes.Equal(a.a, b.a) && bytes.Equal(a.b, b.b) && bytes.Equal(a.key, b.key)
}

func showEnvelope(e envelope) string {
	return fmt.Sprintf("{profile:%+v data:%q a:%q b:%q policy:%q key:%q}", e.profile, e.data, e.a, e.b, e.policy, e.key)
}

// envelopeCorpus is what the in-place decoder must get right or leave
// alone, shared by the fuzz target's seeds and the plain-path test.
var envelopeCorpus = []struct {
	body  string
	plain bool // the in-place decoder takes it for every shape that admits its fields
}{
	{`{"data":"+1 1:0.5 3:1.25\n-1 2:2\n","policy":"hybrid"}`, true},
	{`{"data":"+1\t1:1\\\/\"\b\f\r\n"}`, true},
	{` { "policy" : "rule-based" , "data" : "1 1:1" } `, true},
	{`{"DATA":"1 1:1","Policy":"empirical"}`, true},
	{`{"profile":{"m":100,"n":50,"nnz":500,"density":0.1},"policy":"rule-based"}`, true},
	{`{"profile":{"M":1,"n":1e0,"vdim":null}}`, false}, // 1e0 is no int: the library's to refuse
	{`{"a":"1 2:1\n","b":"1 1:1\n1 1:2\n","policy":"predict"}`, true},
	{`{"items":[{"data":"1 1:1\n"},{"profile":{"m":1,"n":1}},{"data":"1 2:1","policy":"hybrid"}],"policy":"empirical"}`, true},
	{`{"items":[]}`, true},
	{`{}`, true},
	{`{"data":"1 1:1"} trailing garbage`, true},
	{`{"data":"1 1:1"}{"data":"2 2:2"}`, true},
	{`{"data":"+1 1:1\u000a"}`, false},
	{`{"data":"\ud83d\ude00 1:1"}`, false}, // surrogate pair
	{`{"data":"\ud83d 1:1"}`, false},       // lone surrogate → U+FFFD
	{"{\"data\":\"1 1:1\xff\"}", false},    // invalid UTF-8 → U+FFFD
	{"{\"data\":\"1\u00a01:1\"}", false},   // valid non-ASCII, kept
	{`{"data":"1 1:1","data":"2 2:2"}`, false},
	{`{"data":"1 1:1","DATA":"2 2:2"}`, false},
	{`{"data":"1 1:1","data":null}`, false},
	{`{"data":null,"policy":null,"profile":null}`, false},
	{`{"items":null}`, false},
	{`{"items":[null,{"data":"1 1:1"}]}`, false},
	{`{"items":[{"data":"1 1:1"}],"items":[{"policy":"hybrid"}]}`, false},
	{`{"profile":{"m":1},"profile":{"n":2}}`, false},
	{`{"profile":{"m":1,"bogus":2}}`, false},
	{`{"profile":{"m":1]}`, false},
	{`{"profile":{"m":1}} }`, true},
	{`{"profile":[1,2]}`, false},
	{`{"d\u0061ta":"1 1:1"}`, false},
	{`{"data":"1 1:1","top_k":2}`, false},
	{`{"data":5}`, false},
	{`{"data":"1 1:1",}`, false},
	{`{"data":"1 1:1"`, false},
	{`{"data":"1 1:1`, false}, // truncated string
	{`{"data":"1 1:1\`, false},
	{`{"data":"1 1:1\x"}`, false},
	{"{\"data\":\"1 1:1\n\"}", false}, // raw control character
	{`{"policy":"hy\u0062rid"}`, false},
	{`{"policy":"hy\/brid"}`, false},
	{`null`, false},
	{`[1,2,3]`, false},
	{`"data"`, false},
	{``, false},
	{`not json`, false},
	{"\xef\xbb\xbf{}", false},
	{`{"key":"v2|hybrid/0|25,22,47,21,13,13,13,0,217"}`, true},
	{`{"key":"p1|predict/3|1,2\/3","KEY":"x"}`, false},
}

// TestUnordinaryMarksFirstByte: str's eight-byte step stops exactly at the
// first byte plain does not class ordinary, wherever in the word it lies
// and whatever follows it — the borrow of a byte below ' ' must not mark an
// earlier byte.
func TestUnordinaryMarksFirstByte(t *testing.T) {
	first := func(w [8]byte) int {
		for k, c := range w {
			if plain[c] != 0 {
				return k
			}
		}
		return 8
	}
	check := func(w [8]byte) {
		t.Helper()
		got := 8
		if m := unordinary(binary.LittleEndian.Uint64(w[:])); m != 0 {
			got = bits.TrailingZeros64(m) / 8
		}
		if want := first(w); got != want {
			t.Fatalf("%q: step stops at byte %d, want %d", w, got, want)
		}
	}
	for k := 0; k < 8; k++ {
		for c := 0; c < 256; c++ {
			for _, tail := range []byte{'a', 0, '"', 0xff} {
				w := [8]byte{'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a'}
				w[k] = byte(c)
				for j := k + 1; j < 8; j++ {
					w[j] = tail
				}
				check(w)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 100000; n++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Uint64())
		check(w)
	}
}

func envelopeTestServer(tb testing.TB) *Server {
	ex := exec.New(2, exec.Static)
	tb.Cleanup(ex.Close)
	return NewServer(Config{Policy: core.RuleBased, Exec: ex, MaxBatch: 4})
}

// FuzzScheduleEnvelope holds the in-place envelope decoder to encoding/json
// on all five envelope shapes (/v1/predict-format's is /v1/schedule's
// without the policy; a ring peer's lookup carries only a key): every body
// decodes to the same request or draws the same error.
func FuzzScheduleEnvelope(f *testing.F) {
	for _, c := range envelopeCorpus {
		f.Add([]byte(c.body))
	}
	s := envelopeTestServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		diffEnvelope[ScheduleRequest](t, s, body, scheduleFields)
		diffEnvelope[PredictFormatRequest](t, s, body, predictFormatFields)
		diffEnvelope[BatchScheduleRequest](t, s, body, batchFields)
		diffEnvelope[SpGEMMRequest](t, s, body, spgemmFields)
		diffEnvelope[lookupRequest](t, s, body, lookupFields)
	})
}

// TestEnvelopePlainPath pins which bodies the in-place decoder takes: the
// differential cannot tell a decoder that refuses everything from a correct
// one, and a marshalled request must not take the long way round.
func TestEnvelopePlainPath(t *testing.T) {
	admits := func(body string, allowed fieldSet) bool {
		var env envelope
		c := cursor{b: []byte(body), maxItems: 4}
		return c.object(&env, allowed)
	}
	// With every field admitted, only plainness decides.
	for _, tc := range envelopeCorpus {
		if got := admits(tc.body, ^fieldSet(0)); got != tc.plain {
			t.Errorf("%q: taken in place = %v, want %v", tc.body, got, tc.plain)
		}
	}
	// What the clients send: json.Marshal of the exported structs.
	rows := makeLIBSVM(12, 30, 5, 1)
	for _, tc := range []struct {
		req     any
		allowed fieldSet
	}{
		{ScheduleRequest{Data: rows, Policy: "hybrid"}, scheduleFields},
		{PredictFormatRequest{Data: rows}, predictFormatFields},
		{SpGEMMRequest{A: rows, B: rows, Policy: "empirical"}, spgemmFields},
		{BatchScheduleRequest{Items: []ScheduleRequest{{Data: rows}, {Data: rows, Policy: "predict"}}}, batchFields},
		{lookupRequest{Key: Key(dataset.Features{M: 12, N: 30, NNZ: 60}, "hybrid", 0)}, lookupFields},
	} {
		raw, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if !admits(string(raw), tc.allowed) {
			t.Errorf("marshalled %T is not decoded in place: %s", tc.req, raw)
		}
	}
	// Over the batch cap the items are the library's: the request is about
	// to be refused, and the pooled item slice must not grow for it.
	over := `{"items":[{},{},{},{},{}]}`
	if admits(over, batchFields) {
		t.Errorf("a batch over the cap was scanned in place")
	}
}

// TestTopKIsUnknownField: top_k was documented as a per-request override
// that nothing read; it is gone, and a body carrying it is refused like any
// other unknown field instead of being silently ignored.
func TestTopKIsUnknownField(t *testing.T) {
	h := newTestServer(t, Config{Policy: core.RuleBased}).Handler()
	for path, body := range map[string]string{
		"/v1/schedule":       `{"data":"+1 1:1\n","top_k":2}`,
		"/v1/schedule/batch": `{"items":[{"data":"+1 1:1\n"}],"top_k":2}`,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `unknown field \"top_k\"`) {
			t.Errorf("%s: %d %s", path, w.Code, w.Body)
		}
	}
}

// hugeIndexRows declares the largest legal feature index in 16 bytes.
const hugeIndexRows = "+1 2147483647:1\n"

// TestHugeIndexBodyAllocatesLittle: a tiny body declaring a near-int32
// column count used to cost a 2 GiB diagonal bitmap — allocated, zeroed and
// kept in the pooled extractor — before the inline cap refused it (and
// /v1/predict-format never refused it). The workspaces now follow what the
// body holds; the three capped endpoints keep their reply.
func TestHugeIndexBodyAllocatesLittle(t *testing.T) {
	s := newTestServer(t, Config{Policy: core.Hybrid, Predictor: fixedPredictor{format: sparse.CSR, conf: 0.9, ok: true}})
	h := s.Handler()
	const capText = "matrix 1×2147483647 declares 2147483647 dense cells, over the 67108864 inline-scheduling cap"
	for _, tc := range []struct {
		name, path string
		body       any
		status     int
		want       string
	}{
		{"schedule", "/v1/schedule", ScheduleRequest{Data: hugeIndexRows}, http.StatusBadRequest,
			capText + "; send a profile-only request for shapes this large"},
		{"batch item", "/v1/schedule/batch", BatchScheduleRequest{Items: []ScheduleRequest{{Data: hugeIndexRows}}}, http.StatusOK,
			capText + "; send a profile-only request for shapes this large"},
		{"spgemm operand a", "/v1/schedule/spgemm", SpGEMMRequest{A: hugeIndexRows, B: "1 1:1\n"}, http.StatusBadRequest,
			"operand a: " + capText},
		{"spgemm operand b", "/v1/schedule/spgemm", SpGEMMRequest{A: "1 1:1\n", B: hugeIndexRows}, http.StatusBadRequest,
			"operand b: " + capText},
		{"predict-format", "/v1/predict-format", PredictFormatRequest{Data: hugeIndexRows}, http.StatusOK,
			`"n":2147483647`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(raw)))
			runtime.ReadMemStats(&after)
			if w.Code != tc.status || !strings.Contains(w.Body.String(), tc.want) {
				t.Fatalf("status %d, want %d with %q: %s", w.Code, tc.status, tc.want, w.Body)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("a %d-byte request allocated %d bytes", len(raw), got)
			}
		})
	}
}

// TestScheduleHTTPHotPathAllocs is the allocation contract of a warmed
// request, through Handler().ServeHTTP with the trace ring full: what a
// cache hit allocates does not grow with the matrix it describes — not one
// allocation per row or per value, and not by a span attribute, which is
// stored as the number it is — and barely with the items of a batch; and
// the bytes allocated per request stay under a budget set a quarter above
// what was measured when the reply became an append into the scratch and
// the trace a recycled one (EXPERIMENTS.md, "What a cache hit still
// allocates"). The figures include httptest's own request, its 4 KB
// bufio.Reader, the recorder and the Body.String() copy, so their floor is
// not zero.
func TestScheduleHTTPHotPathAllocs(t *testing.T) {
	if testing.Short() {
		// make test-race pairs -short with the race detector, under which
		// sync.Pool drops items at random and pooled paths allocate.
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	// The pooled scratch is what is under test: keep it from being emptied
	// by a collection or stranded on another P between the runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A four-trace ring is full after the warm-up runs, so what is measured
	// is the steady state: traces recording into recycled storage.
	s := newTestServer(t, Config{Policy: core.Hybrid, TopK: 2, TrialRows: 8, Repeats: 1, TraceCapacity: 4})
	h := s.Handler()
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	measure := func(t *testing.T, path string, body []byte) (allocs float64, bytesPerRun uint64) {
		rd := bytes.NewReader(body)
		run := func() {
			rd.Reset(body)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, rd))
			if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"error"`) {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		// First contact measures and caches the shape class; a few more and
		// the pooled buffers have reached their size and the ring has filled.
		for i := 0; i < 8; i++ {
			run()
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	const items = 16
	small, large := makeLIBSVM(10, 40, 6, 1), makeLIBSVM(960, 40, 6, 2)
	batch := func(rows string, n int) []byte {
		req := BatchScheduleRequest{Items: make([]ScheduleRequest, n)}
		for i := range req.Items {
			req.Items[i].Data = rows
		}
		return marshal(req)
	}
	pair := func(rows string) []byte {
		return marshal(SpGEMMRequest{A: rows + "+1 40:1\n", B: makeLIBSVM(39, 30, 5, 3) + "+1 30:1\n"})
	}
	allocsOf := map[string]float64{}
	for _, tc := range []struct {
		name, path   string
		small, large []byte
		budget       uint64 // bytes per request, either body
	}{
		{"schedule", "/v1/schedule", marshal(ScheduleRequest{Data: small}), marshal(ScheduleRequest{Data: large}), 10700},
		{"batch", "/v1/schedule/batch", batch(small, items), batch(large, items), 29300},
		{"spgemm", "/v1/schedule/spgemm", pair(small), pair(large), 13600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			smallAllocs, smallBytes := measure(t, tc.path, tc.small)
			largeAllocs, largeBytes := measure(t, tc.path, tc.large)
			t.Logf("%d-byte body: %.0f allocs, %d B; %d-byte body: %.0f allocs, %d B",
				len(tc.small), smallAllocs, smallBytes, len(tc.large), largeAllocs, largeBytes)
			allocsOf[tc.name] = smallAllocs
			if largeAllocs > smallAllocs {
				t.Errorf("allocations grow with the matrix: %.0f for a %d-byte body, %.0f for a %d-byte one",
					smallAllocs, len(tc.small), largeAllocs, len(tc.large))
			}
			if smallBytes > tc.budget || largeBytes > tc.budget {
				t.Errorf("bytes per request over the %d-byte budget: %d for a %d-byte body, %d for a %d-byte one",
					tc.budget, smallBytes, len(tc.small), largeBytes, len(tc.large))
			}
		})
	}
	// A pair hit's reply names the candidates of its estimates block and its
	// choice from a table, and ranks the block in the scratch: it allocates
	// no more than an SMSV hit, where each used to cost 21 objects more.
	t.Run("pair hit", func(t *testing.T) {
		if allocsOf["spgemm"] > allocsOf["schedule"] {
			t.Errorf("a warmed spgemm request allocates %.0f objects, a warmed schedule request %.0f",
				allocsOf["spgemm"], allocsOf["schedule"])
		}
	})
	// What one more warmed item adds to a batch: the context its batch.item
	// span hands its children — the reply slot is appended, the decision
	// spliced, the spans recorded into recycled storage. (It was 21, most of
	// them the slot's decision struct, its sorted evidence and its spans.)
	t.Run("batch marginal item", func(t *testing.T) {
		one, _ := measure(t, "/v1/schedule/batch", batch(small, 1))
		many, _ := measure(t, "/v1/schedule/batch", batch(small, items))
		t.Logf("1 item: %.0f allocs; %d items: %.0f allocs", one, items, many)
		if perItem := (many - one) / (items - 1); perItem > 4 {
			t.Errorf("a warmed batch item costs %.1f allocations, want at most 4", perItem)
		}
	})
}

// BenchmarkScheduleFrontHalf is what a /v1/schedule request pays before its
// cache probe — body read, envelope decode, LIBSVM parse, Table IV features
// — by body size: the "selector overhead on the serving path" table in
// EXPERIMENTS.md. Each size runs twice: values at full precision (%g, the
// row named by its size) and at 5 significant digits (the "-g5" row, the
// same rows spelled as svm-scale and the benchmark deck write them, so
// named by the full-precision body's size though the body is smaller).
func BenchmarkScheduleFrontHalf(b *testing.B) {
	s := NewServer(Config{})
	body := func(rows, digits int) []byte {
		body, err := json.Marshal(ScheduleRequest{Data: makeLIBSVMDigits(rows, 40, 6, 1, digits), Policy: "hybrid"})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	for _, rows := range []int{8, 32, 256, 1024} {
		full := body(rows, -1)
		size := fmt.Sprintf("%dKB", (len(full)+512)>>10)
		b.Run(size, func(b *testing.B) { frontHalf(b, s, full) })
		g5 := body(rows, 5)
		b.Run(size+"-g5", func(b *testing.B) { frontHalf(b, s, g5) })
	}
}

// frontHalf times BenchmarkScheduleFrontHalf's stages on one body.
func frontHalf(b *testing.B, s *Server, body []byte) {
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", rd)
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		sc := getScratch()
		env, ok := decodeEnvelope[ScheduleRequest](s, sc, w, r, scheduleFields)
		if !ok {
			b.Fatal(w.Body)
		}
		if _, _, err := sc.parse(env.data); err != nil {
			b.Fatal(err)
		}
		putScratch(sc)
	}
}
