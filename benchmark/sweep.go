package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sweep is the informational open-loop half: independent arrivals at fixed
// rates against the serve_cold deck, each request timed from the moment it
// was due, so a stall charges every request queued behind it. It names the
// highest rate the server sustains, which is where admission (429) starts
// to bite. It is not in BENCHMARK.json and gates nothing: a threshold
// metric flips between neighbouring rates instead of drifting, so no bound
// can be put on it.

var sweepRates = []float64{40, 80, 120, 160, 240} // requests per second

const (
	sweepStep      = 10 * time.Second
	sweepLimit     = 250 * time.Millisecond // p99 a sustained rate must meet
	sweepMaxQueued = 512                    // outstanding requests before arrivals are shed
)

// rateResult is one step of the sweep.
type rateResult struct {
	rate                float64
	sent, refused, shed int
	failed              int
	p50, p99            float64 // ms, from the due time
	lateP99             float64 // ms the generator ran behind its schedule
	backlog             int     // requests still outstanding when the step ended
}

// sustained reports whether the server kept up: the tail met the limit,
// nothing was refused or shed, and the queue at the end of the step held
// less than a quarter second of arrivals.
func (r rateResult) sustained() bool {
	return r.p99 <= ms(sweepLimit) && r.refused == 0 && r.shed == 0 && r.failed == 0 &&
		float64(r.backlog) <= max(4, r.rate/4)
}

func sweepMain(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "deck seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	inst, err := setupCold(*seed, params{div: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		return 1
	}
	c := inst.(*coldInstance)
	defer c.Close()
	best := 0.0
	for _, rate := range sweepRates {
		r := c.openLoop(rate, sweepStep)
		tag := fmt.Sprintf("sweep rate_%g", rate)
		fmt.Printf("%s p50_ms %.4g ms %d\n", tag, r.p50, r.sent)
		fmt.Printf("%s p99_ms %.4g ms %d\n", tag, r.p99, r.sent)
		fmt.Printf("%s generator_late_p99_ms %.4g ms %d\n", tag, r.lateP99, r.sent)
		fmt.Printf("%s share_429 %.4g ratio %d\n", tag, float64(r.refused)/float64(max(r.sent, 1)), r.sent)
		fmt.Printf("%s shed %d count %d\n", tag, r.shed, r.sent+r.shed)
		fmt.Printf("%s failed %d count %d\n", tag, r.failed, r.sent)
		fmt.Printf("%s backlog_end %d count %d\n", tag, r.backlog, r.sent)
		if r.sustained() {
			best = rate
		}
	}
	fmt.Printf("sweep sustained_rate %g 1/s %d\n", best, len(sweepRates))
	return 0
}

// openLoop sends the deck at rate for d, a fresh server every time the
// deck wraps so that every request stays a first contact.
func (c *coldInstance) openLoop(rate float64, d time.Duration) rateResult {
	res := rateResult{rate: rate}
	interval := time.Duration(float64(time.Second) / rate)
	hc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: sweepMaxQueued}}
	defer hc.CloseIdleConnections()
	var mu sync.Mutex
	var lats, late []float64
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if due.Sub(t0) >= d {
			break
		}
		time.Sleep(time.Until(due))
		if k%len(c.reqs) == 0 {
			c.node.reset()
		}
		if outstanding.Load() >= sweepMaxQueued {
			res.shed++
			continue
		}
		rq := c.reqs[k%len(c.reqs)]
		outstanding.Add(1)
		wg.Add(1)
		started := time.Now()
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			cl := &httpClient{hc: hc}
			status, reply, _, _, err := cl.post(c.node.url+endpointPaths[rq.endpoint], rq.body)
			done := time.Now()
			_, cerr := rq.check(status, reply, false)
			mu.Lock()
			defer mu.Unlock()
			res.sent++
			switch {
			case err == nil && status == http.StatusTooManyRequests:
				res.refused++
			case err != nil || cerr != nil:
				res.failed++
			default:
				lats = append(lats, ms(done.Sub(due)))
			}
			late = append(late, ms(started.Sub(due)))
		}()
	}
	res.backlog = int(outstanding.Load())
	wg.Wait()
	sort.Float64s(lats)
	sort.Float64s(late)
	res.p50, res.p99, res.lateP99 = percentile(lats, 0.5), percentile(lats, 0.99), percentile(late, 0.99)
	return res
}
