package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Endpoints an op can exercise; train is the no-HTTP schedule+train job.
const (
	epSchedule = iota
	epBatch
	epSpGEMM
	epTrain
	numEndpoints
)

var endpointNames = [numEndpoints]string{"schedule", "batch", "spgemm", "train"}

// Decision sources as the responses name them.
var sourceNames = [...]string{"cache", "history", "measured", "predictor", "model"}

func sourceIndex(s string) int {
	for i, n := range sourceNames {
		if n == s {
			return i
		}
	}
	return -1
}

// op is the record of one client operation. An op is one request (a batch
// of 16 items is one op) or, on svm_train, one schedule+train job.
type op struct {
	start     time.Time
	lat       time.Duration // send to last byte read; checks excluded
	endpoint  uint8
	status    int16  // HTTP status; 0 for a transport error or a non-HTTP op
	source    int8   // index into sourceNames; -1 when the reply named none
	forwarded bool   // ring: the target node neither owns nor holds a replica
	degraded  bool   // the reply carried degraded: true
	measured  uint16 // candidates the reply reports as measured
	bytes     int32  // request body size
	ref       int32  // index into the workload's request table, for replay
	target    uint8  // ring: the node the request was sent to
	err       string
}

// instance is one set-up workload: servers booted, inputs generated,
// caches warm. Do is called concurrently, once per client goroutine at a
// time, with that client's op counter.
type instance interface {
	Clients() int
	Do(client, i int) op
	// Guards fails the run when the window did not exercise what the
	// workload exists to exercise, so it can never report numbers for
	// traffic it silently stopped generating.
	Guards(w *window) error
	// Layers fills the per-layer metrics after a traced window: it replays
	// sampled ops stage by stage into tr and runs the layer probes.
	Layers(tr *tracer, w *window, out metricSet) error
	// Counters snapshots the work the servers (or the trainer) have done
	// so far; a window reports the difference.
	Counters() serverCounters
	Close()
}

// workload names a traffic mix and how to set it up from a seed.
type workload struct {
	name string
	// tailP is the percentile op_tail_ms reports, sized to the op rate so
	// that a sub-window keeps samples beyond it.
	tailP float64
	// tailWindows is the most equal sub-windows that percentile is taken
	// in; the lowest of them is reported (subWindows, windowedTail).
	tailWindows int
	setup       func(seed int64, p params) (instance, error)
}

// usage is a snapshot of the process-wide meters an op is charged with.
type usage struct {
	cpu     time.Duration
	bytes   uint64
	objects uint64
	gcs     uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		bytes:   s[0].Value.Uint64(),
		objects: s[1].Value.Uint64(),
		gcs:     s[2].Value.Uint64(),
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// window is everything measured between the first op sent and the last
// reply read of one load phase.
type window struct {
	ops     []op // completion order within each client, clients concatenated
	elapsed time.Duration
	start   time.Time
	before  usage
	after   usage
	gcPause time.Duration
	server  serverCounters // servers' work during the window
	// cuts are the meters at the window's start, at each interior slice
	// boundary and at its end: len(cuts) == slices+1.
	cuts    []usage
	planned time.Duration // the window length asked for; slices divide it

	occupancy        float64 // traced windows: mean share of pool workers busy
	occupancySamples int
}

func (w *window) good() int {
	n := 0
	for i := range w.ops {
		if w.ops[i].err == "" {
			n++
		}
	}
	return n
}

// runLoad drives inst closed-loop for d: every client sends its next op
// only when the previous reply has been read and checked, because the
// callers are training jobs that block on the layout decision.
func runLoad(inst instance, d time.Duration, traced bool) *window {
	clients := inst.Clients()
	per := make([][]op, clients)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause0 := ms.PauseTotalNs
	counters0 := inst.Counters()
	w := &window{before: readUsage(), start: time.Now(), planned: d}
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if traced {
		sampler.Add(1)
		go occupancySampler(stopSampler, &sampler, w)
	}
	// Read the meters at every interior slice boundary, so that CPU per op
	// can be taken slice by slice like the latencies.
	w.cuts = make([]usage, slices+1)
	w.cuts[0] = w.before
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for k := 1; k < slices; k++ {
			select {
			case <-stopSampler:
				return
			case <-time.After(time.Until(w.start.Add(d * time.Duration(k) / slices))):
				w.cuts[k] = readUsage()
			}
		}
	}()
	deadline := w.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := make([]op, 0, 1<<14)
			for i := 0; time.Now().Before(deadline); i++ {
				ops = append(ops, inst.Do(c, i))
			}
			per[c] = ops
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(w.start)
	w.after = readUsage()
	w.cuts[slices] = w.after
	close(stopSampler)
	sampler.Wait()
	w.server = inst.Counters().sub(counters0)
	runtime.ReadMemStats(&ms)
	w.gcPause = time.Duration(ms.PauseTotalNs - pause0)
	for _, ops := range per {
		w.ops = append(w.ops, ops...)
	}
	return w
}

const (
	// minBeyond is how many samples a sub-window must keep above the tail
	// percentile for it to be a measurement and not an outlier.
	minBeyond = 10
	// slices is how many equal parts of the window the rate, the median
	// latency and the CPU per op are taken in. Each is reported from its
	// best slice. What disturbs a run on a shared box (a neighbour's burst,
	// a stolen core) only ever slows it, for seconds at a time, so the
	// least disturbed slice is the closest a run gets to the program's own
	// speed: over 20 runs through quiet and slow phases of the reference
	// host the median of slices spread by 0.10 to 0.21, the best slice by
	// 0.04 to 0.10. The price: a regression that stalls fewer than nine
	// slices in ten does not show here; README.md says where it does.
	slices = 10
)

// endToEnd computes the gated metrics of one untraced window. strict
// fails a window too short for its tail percentile; the one-second smoke
// tests are.
func endToEnd(w *window, wl workload, strict bool, out metricSet) error {
	good := w.good()
	if good == 0 {
		return fmt.Errorf("no op succeeded out of %d", len(w.ops))
	}
	samples := make([]sample, 0, good)
	bySlice := make([][]float64, slices)
	var lastDone [slices]time.Duration // when each slice's last op finished
	for i := range w.ops {
		o := &w.ops[i]
		if o.err != "" {
			continue
		}
		at := o.start.Add(o.lat).Sub(w.start)
		samples = append(samples, sample{at: at, lat: o.lat})
		// Ops finishing after the planned end (each client's last) belong
		// to the last slice, whose meters were read after them.
		k := min(int(int64(at)*slices/int64(w.planned)), slices-1)
		bySlice[k] = append(bySlice[k], ms(o.lat))
		lastDone[k] = max(lastDone[k], at)
	}
	tail, counted := windowedTail(samples, w.elapsed, subWindows(good, wl.tailP, wl.tailWindows), wl.tailP)
	if counted == 0 {
		if strict {
			return fmt.Errorf("op_tail_ms: %d ops in %v leave fewer than %d samples beyond p%g",
				good, w.elapsed.Round(time.Millisecond), minBeyond, wl.tailP*100)
		}
		lats := make([]float64, len(samples))
		for i, s := range samples {
			lats[i] = ms(s.lat)
		}
		sort.Float64s(lats)
		tail = percentile(lats, wl.tailP)
	}
	rate, p50, cpu := 0.0, math.Inf(1), math.Inf(1)
	var prevDone time.Duration
	for k, lats := range bySlice {
		if len(lats) == 0 {
			continue // a stall as long as the slice: the other slices decide
		}
		// A slice's rate is its ops over the time from the previous slice's
		// last completion to its own: the interval those ops actually took.
		// Dividing by the nominal slice length would quantize a 20 ops/s
		// workload to steps of half an op per second.
		length := lastDone[k] - prevDone
		prevDone = lastDone[k]
		sort.Float64s(lats)
		rate = max(rate, float64(len(lats))/length.Seconds())
		p50 = min(p50, percentile(lats, 0.5))
		// A boundary the meter reader missed (it lost the CPU past the end
		// of the window) is left zero: its two slices have no CPU figure.
		if c0, c1 := w.cuts[k].cpu, w.cuts[k+1].cpu; c0 > 0 && c1 > c0 {
			cpu = min(cpu, ms(c1-c0)/float64(len(lats)))
		}
	}
	n := float64(good)
	out.set("ops_per_s", rate, "1/s", good)
	out.set("op_p50_ms", p50, "ms", good)
	out.set("op_tail_ms", tail, "ms", good)
	out.set("cpu_ms_per_op", cpu, "ms", good)
	out.set("alloc_kb_per_op", float64(w.after.bytes-w.before.bytes)/1024/n, "KB", good)
	out.set("allocs_per_op", float64(w.after.objects-w.before.objects)/n, "count", good)
	return nil
}

// httpClient is one closed-loop client: its own transport, so its own
// keep-alive connection per target, and a reusable reply buffer.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends body and reads the whole reply. The returned bytes are valid
// until the client's next call.
func (c *httpClient) post(url string, body []byte) (status int, reply []byte, start time.Time, lat time.Duration, err error) {
	start = time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, start, time.Since(start), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), start, time.Since(start), err
}

func (c *httpClient) get(url string) (status int, reply []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), err
}

// loadAverage is the 1-minute load average, or -1 where /proc is absent.
func loadAverage() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var l float64
	if _, err := fmt.Sscan(string(raw), &l); err != nil {
		return -1
	}
	return l
}

// machineBusy is the CPU time all processes together have used since boot:
// every field of /proc/stat's first line but idle and iowait, in the
// kernel's USER_HZ ticks of 10 ms. ok is false where /proc is absent.
func machineBusy() (busy time.Duration, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	var user, nice, system, idle, iowait, irq, softirq, steal int64
	if _, err := fmt.Sscanf(string(raw), "cpu %d %d %d %d %d %d %d %d", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal); err != nil {
		return 0, false
	}
	return time.Duration(user+nice+system+irq+softirq+steal) * 10 * time.Millisecond, true
}

// numClients is the closed-loop client count: one per core of the 2-core
// reference box, never more, so clients and servers do not queue for CPU
// on a larger host either.
func numClients() int { return min(runtime.NumCPU(), 2) }
