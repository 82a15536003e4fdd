package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/online"
	"repro/internal/sparse"
)

// The tests in this file hold the pooled scratch's builder to its Recycle
// contract: a request's candidates are built into the storage of the
// previous request's, which is sound only if nothing a request built
// outlives it (DESIGN §7, "The scratch's lifetime").

// shapeBody is the LIBSVM body of a rows×cols matrix with per entries in
// every row, spread evenly over the columns and shifted by one column a row;
// the last row also holds column cols, so the body declares all of them.
func shapeBody(rows, cols, per int) string {
	var sb strings.Builder
	row := make([]int, per)
	for r := 0; r < rows; r++ {
		for j := range row {
			row[j] = (r + j*(cols/per)) % cols
		}
		sort.Ints(row)
		if r == rows-1 && row[per-1] != cols-1 {
			row = append(row, cols-1)
		}
		sb.WriteString("+1")
		for _, c := range row {
			fmt.Fprintf(&sb, " %d:%d", c+1, 1+(r+c)%9)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestFirstContactAllocs is the allocation contract of a first contact
// (EXPERIMENTS.md, "What a first contact allocates"): never-seen, same-sized
// empirical /v1/schedule requests through Handler().ServeHTTP — every basic
// format built in full and timed — allocate per request under a quarter of
// what their candidates hold. Before the scratch's builder recycled its
// candidates every request allocated all of them afresh: 558 KB a request
// on this deck, 1.17× what they hold; the scratch now builds into the
// storage of the request before, and what is left — 92 KB, a sixth of that
// — is the parse, the scheduler's evidence, the cache entry and the reply.
func TestFirstContactAllocs(t *testing.T) {
	if testing.Short() {
		// make test-race pairs -short with the race detector, under which
		// sync.Pool drops items at random and pooled paths allocate.
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	// The pooled scratch is what is under test: keep it from being emptied
	// by a collection or stranded on another P between the requests.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestServer(t, Config{Policy: core.Empirical, TrialRows: 4, Repeats: 1, TraceCapacity: 1})
	h := s.Handler()
	// One size — 40 000 cells, 3 200 entries — at seven aspect ratios a
	// factor of two apart, which puts every body outside the others' tuning
	// history radius. The first two size the spares: the square has the most
	// diagonals, the tallest the most rows.
	var deck []string
	for _, m := range []int{200, 1600, 25, 50, 100, 400, 800} {
		deck = append(deck, shapeBody(m, 40000/m, 3200/m))
	}
	const warm = 2
	run := func(data string) {
		raw, err := json.Marshal(ScheduleRequest{Data: data})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw)))
		if d := decodeSchedule(t, w).Decision; d.Source != "measured" {
			t.Fatalf("a deck body was answered from %q: the deck must be never-seen shapes", d.Source)
		}
	}
	for _, data := range deck[:warm] {
		run(data)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, data := range deck[warm:] {
		run(data)
	}
	runtime.ReadMemStats(&after)
	perRequest := int64(after.TotalAlloc-before.TotalAlloc) / int64(len(deck)-warm)

	var held int64
	for _, data := range deck[warm:] {
		samples, n, err := dataset.ParseLIBSVM(strings.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := dataset.SamplesToMatrix(samples, n)
		for _, f := range sparse.BasicFormats {
			held += b.MustBuild(f).StorageBytes()
		}
	}
	held /= int64(len(deck) - warm)
	t.Logf("%d same-sized first contacts: %d B each; their five candidates hold %d B", len(deck)-warm, perRequest, held)
	if 4*perRequest > held {
		t.Errorf("a first contact allocated %d B, over a quarter of the %d B its candidates hold", perRequest, held)
	}
}

// firstContact is one never-seen request. answer is what its reply must
// agree on whichever scratch served it: where the decision came from, the
// features its rows parse to, the candidates that were measured and, for a
// product, its entry count.
type firstContact struct {
	path string
	body []byte
}

func (fc firstContact) answer(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, fc.path, bytes.NewReader(fc.body)))
	if w.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", fc.path, w.Code, w.Body)
		return ""
	}
	var keys []string
	var out string
	if fc.path == "/v1/schedule/spgemm" {
		var resp SpGEMMResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Error(err)
			return ""
		}
		d := resp.Decision
		for _, m := range d.Measured {
			keys = append(keys, m.Candidate)
		}
		out = fmt.Sprintf("%s %+v %+v nnz=%d", d.Source, d.AFeatures, d.BFeatures, d.OutputNNZ)
	} else {
		var resp ScheduleResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Error(err)
			return ""
		}
		d := resp.Decision
		for _, m := range d.Measured {
			keys = append(keys, m.Format+"/"+m.Chunk+"/"+m.Variant)
		}
		out = fmt.Sprintf("%s %+v", d.Source, d.Features)
	}
	slices.Sort(keys)
	return out + " measured " + strings.Join(keys, ",")
}

// firstContacts returns g goroutines' worth of distinct empirical requests:
// three SMSV bodies and one SpGEMM pair each. The SMSV shapes lie on a grid
// of aspect ratio × entry count, a factor of three apart on either axis, and
// the pairs on a grid of the two operands' aspect ratios, a factor of four
// apart: every request is outside the others' tuning history radius, so
// each is measured whatever order the goroutines run in.
func firstContacts(t *testing.T, g int) [][]firstContact {
	t.Helper()
	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	round := func(x float64) int { return max(1, int(math.Round(x))) }
	out := make([][]firstContact, g)
	for i := range out {
		for k := 0; k < 3; k++ {
			s := 3*i + k
			nnz, aspect := 12*math.Pow(3, float64(s/5)), math.Pow(3, float64(s%5-2))
			m, n := round(math.Sqrt(4*nnz*aspect)), round(math.Sqrt(4*nnz/aspect))
			out[i] = append(out[i], firstContact{"/v1/schedule", marshal(ScheduleRequest{
				Data: shapeBody(m, n, min(n, round(nnz/float64(m)))), Policy: "empirical"})})
		}
		const k = 16
		m, n := k<<(2*(i%3))>>2, k<<(2*(i/3%3))>>2
		out[i] = append(out[i], firstContact{"/v1/schedule/spgemm", marshal(SpGEMMRequest{
			A: shapeBody(m, k, 4), B: shapeBody(k, n, min(n, 4)), Policy: "empirical"})})
	}
	return out
}

// TestRecycledScratchesMatchFreshServer: 8 goroutines send distinct
// empirical SMSV and SpGEMM first contacts to one server at once, so pooled
// scratches — and the storage their builders recycle — pass between
// goroutines and between workloads; every reply must agree with what a
// fresh server answers the same request with, one at a time. Under -race
// (make test-race) this is also the check that no goroutine still reads a
// matrix when the next request's build overwrites its storage.
func TestRecycledScratchesMatchFreshServer(t *testing.T) {
	const goroutines = 8
	contacts := firstContacts(t, goroutines)
	cfg := Config{Policy: core.Empirical, TrialRows: 2, Repeats: 1, MaxInflight: 2 * goroutines}
	h := newTestServer(t, cfg).Handler()
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range contacts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, fc := range contacts[g] {
				got[g] = append(got[g], fc.answer(t, h))
			}
		}()
	}
	wg.Wait()
	for g := range contacts {
		fresh := newTestServer(t, cfg).Handler()
		for i, fc := range contacts[g] {
			if want := fc.answer(t, fresh); got[g][i] != want {
				t.Errorf("goroutine %d request %d (%s):\nshared server %s\nfresh server  %s", g, i, fc.path, got[g][i], want)
			}
		}
	}
}

// TestRecycleAfterKernelPanic: a measurement whose kernel panics fails that
// candidate mid-decision, with every matrix of the request built, and the
// request still answers. The scratch goes back to the pool as usual; the
// requests after it, built into what it recycled, must answer as a fresh
// server does.
func TestRecycleAfterKernelPanic(t *testing.T) {
	cfg := Config{Policy: core.Empirical, TrialRows: 2, Repeats: 1}
	h := newTestServer(t, cfg).Handler()
	contacts := firstContacts(t, 2)
	reg := arm(t, "exec.dispatch.panic=1:2")
	contacts[0][0].answer(t, h)
	contacts[0][3].answer(t, h)
	fault.Enable(nil)
	if reg.Snapshot()[0].Fired == 0 {
		t.Fatal("no kernel panicked")
	}
	for _, fc := range contacts[1] {
		if got, want := fc.answer(t, h), fc.answer(t, newTestServer(t, cfg).Handler()); got != want {
			t.Errorf("%s after a kernel panic:\n%s\nfresh server %s", fc.path, got, want)
		}
	}
}

// TestCacheDoRunsLeaderInCaller: the singleflight leader computes on the
// goroutine that called Do — the handler's — so a request's measurement, and
// every read of the matrices it built, is over before that handler puts its
// scratch back.
func TestCacheDoRunsLeaderInCaller(t *testing.T) {
	goroutine := func() string {
		buf := make([]byte, 64)
		id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
		return id
	}
	c := NewCache[*CachedDecision](1, 4)
	var leader string
	_, outcome, err := c.Do("k", func() (*CachedDecision, error) {
		leader = goroutine()
		return dec(sparse.CSR), nil
	})
	if err != nil || outcome != "miss" {
		t.Fatalf("Do: %s, %v", outcome, err)
	}
	if caller := goroutine(); leader != caller {
		t.Fatalf("the leader ran on goroutine %s, the caller is %s", leader, caller)
	}
}

// TestWhatOutlivesARequestHoldsNoMatrix is the type-level half of the
// Recycle contract: nothing a request leaves behind — the decision caches'
// entries, the gossip payloads, the tuning histories, the harvest record —
// can hold a matrix, a builder or anything else that views a scratch's
// storage. It walks their types and fails on a sparse format, a builder,
// triplets, or an interface other than error (which could carry any of
// them).
func TestWhatOutlivesARequestHoldsNoMatrix(t *testing.T) {
	errType := reflect.TypeOf((*error)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if ty.PkgPath() == "repro/internal/sparse" && ty.Kind() == reflect.Struct {
			switch ty.Name() {
			case "Candidate", "Chunk", "Variant":
			default:
				t.Errorf("%s is a %v", path, ty)
			}
		}
		switch ty.Kind() {
		case reflect.Interface:
			if ty != errType {
				t.Errorf("%s is an interface (%v) that could hold a matrix", path, ty)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(path+"[]", ty.Elem())
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			if ty.PkgPath() == "sync" || ty.PkgPath() == "sync/atomic" {
				return
			}
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Func:
			t.Errorf("%s is a func that could close over a matrix", path)
		}
	}
	for _, v := range []any{
		CachedDecision{}, CachedPairDecision{}, // cache entries
		decisionWire{}, historyWire{}, pairHistoryWire{}, // gossip payloads
		core.History{}, core.PairHistory{}, // tuning histories
		online.Record{}, // harvest
	} {
		walk(reflect.TypeOf(v).String(), reflect.TypeOf(v))
	}
}
