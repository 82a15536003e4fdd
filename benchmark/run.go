package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
)

// The four workloads. tailP is the highest percentile each op rate
// supports and tailWindows the most sub-windows it is taken in (about 3400
// ops/s on serve_hot, 6000 on ring_mixed, 200 on serve_cold and 45 on
// svm_train on the 2-core reference box when it is quiet; 2100, 4800, 130
// and 12 in the slowest phase seen). subWindows takes fewer when a window
// holds too few ops for that many: three fixed sub-windows of 15 s kept 4
// to 8 samples beyond p90 on svm_train in a slow phase, and the run failed.
var workloads = []workload{
	{name: "serve_hot", tailP: 0.99, tailWindows: 10, setup: setupHot},
	{name: "serve_cold", tailP: 0.90, tailWindows: 5, setup: setupCold},
	{name: "ring_mixed", tailP: 0.99, tailWindows: 10, setup: setupRing},
	{name: "svm_train", tailP: 0.90, tailWindows: 5, setup: setupSVM},
}

// params sizes a workload's inputs. div shrinks the decks for the smoke
// tests (1 is the benchmark's real size); seconds is the load the instance
// must hold never-seen inputs for.
type params struct {
	div     int
	seconds float64
}

func (p params) of(n int) int { return max(n/p.div, 2) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// setupRepeats set-ups are timed per untraced run and their median
	// reported, so one slow page-fault storm does not decide setup_s.
	setupRepeats = 3
	maxWarmup    = 2 * time.Second
	// The traced run first measures an untraced reference window of this
	// share of the traced one; their throughput ratio is the tracing
	// overhead.
	referenceShare = 3
)

// runResult is one (workload, trace mode) run.
type runResult struct {
	Metrics   metricSet `json:"metrics"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"` // first few distinct failures
	guard     error
}

func (r *runResult) count(w *window) {
	seen := map[string]bool{}
	r.Attempted, r.Failed = len(w.ops), 0
	for i := range w.ops {
		if e := w.ops[i].err; e != "" {
			r.Failed++
			if !seen[e] && len(r.Errors) < 5 {
				seen[e] = true
				r.Errors = append(r.Errors, e)
			}
		}
	}
}

// commonGuards are the conditions no workload may violate.
func commonGuards(w *window) error {
	for i := range w.ops {
		if w.ops[i].status >= 500 {
			return fmt.Errorf("a reply was %d: %s", w.ops[i].status, w.ops[i].err)
		}
	}
	return nil
}

// loadSeconds is how long an instance will be driven in one run; the ring
// sizes its pool of never-seen shapes by it.
func loadSeconds(seconds float64) float64 {
	return warmupFor(seconds).Seconds() + seconds + seconds/referenceShare + 1
}

// warmupFor is the unrecorded load before a window of the given length:
// connections open, pools fill, the runtime sizes its heap.
func warmupFor(seconds float64) time.Duration {
	return min(maxWarmup, time.Duration(seconds/2*float64(time.Second)))
}

// runUntraced measures the end-to-end metrics: set-up (timed, repeated),
// warm-up, then one closed-loop window with the harness recording nothing
// but each op's outcome.
func runUntraced(wl workload, seed int64, seconds float64, p params) (*runResult, error) {
	p.seconds = loadSeconds(seconds)
	var inst instance
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.Close()
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(seed, p); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.Close()
	runLoad(inst, warmupFor(seconds), false)
	runtime.GC()
	w := runLoad(inst, time.Duration(seconds*float64(time.Second)), false)
	res := &runResult{Metrics: metricSet{}}
	res.count(w)
	res.Metrics.set("setup_s", median(setups), "s", len(setups))
	if err := endToEnd(w, wl, p.div == 1, res.Metrics); err != nil {
		return res, fmt.Errorf("%s: %w", wl.name, err)
	}
	if res.guard = commonGuards(w); res.guard == nil {
		res.guard = inst.Guards(w)
	}
	return res, nil
}

// runTraced measures the per-layer metrics: an untraced reference window,
// then a traced window whose ops become root spans, then the stage
// replays and layer probes. spansPath receives the spans ("" skips it).
func runTraced(wl workload, seed int64, seconds float64, p params, spansPath string) (*runResult, error) {
	p.seconds = loadSeconds(seconds)
	inst, err := wl.setup(seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer inst.Close()
	runLoad(inst, warmupFor(seconds), false)
	runtime.GC()
	ref := runLoad(inst, time.Duration(seconds/referenceShare*float64(time.Second)), false)
	w := runLoad(inst, time.Duration(seconds*float64(time.Second)), true)
	res := &runResult{Metrics: zeroLayers()}
	res.count(w)
	tr := newTracer(w.start)
	if err := inst.Layers(tr, w, res.Metrics); err != nil {
		return res, fmt.Errorf("%s layers: %w", wl.name, err)
	}
	if refRate := float64(ref.good()) / ref.elapsed.Seconds(); refRate > 0 {
		rate := float64(w.good()) / w.elapsed.Seconds()
		res.Metrics.set("harness.trace_overhead_share", 1-rate/refRate, "ratio", w.good())
	}
	if res.guard = commonGuards(w); res.guard == nil {
		res.guard = inst.Guards(w)
	}
	if spansPath != "" {
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return res, err
		}
		if err := tr.write(spansPath); err != nil {
			return res, err
		}
	}
	return res, nil
}

// occupancySampler polls the shared pool while a traced window runs: the
// share of workers found busy is exec.occupancy_share. It is the one cost
// tracing adds inside the window; spans are built from the op records
// afterwards.
func occupancySampler(stop <-chan struct{}, done *sync.WaitGroup, w *window) {
	defer done.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var busy, total int
	for {
		select {
		case <-stop:
			if total > 0 {
				w.occupancy = float64(busy) / float64(total)
			}
			return
		case <-tick.C:
			b, n := exec.Default().Occupancy()
			busy += b
			total += n
			w.occupancySamples++
		}
	}
}
