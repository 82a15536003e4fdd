// Command metricslint validates a /metrics payload against the Prometheus
// text exposition format (see telemetry.Lint for the rule set). It is the
// `make metrics-lint` CI gate: with no flags it stands up an in-process
// layoutd server, drives one schedule request through it so counters,
// histograms, and collectors all carry live values, scrapes /metrics, and
// lints the result.
//
// Usage:
//
//	metricslint                      # lint an in-process test server
//	metricslint -url http://host:8723/metrics
//	metricslint -file scrape.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	url := flag.String("url", "", "scrape this /metrics URL instead of an in-process server")
	file := flag.String("file", "", "lint a saved exposition payload instead of scraping")
	flag.Parse()

	payload, err := gather(*url, *file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricslint:", err)
		os.Exit(1)
	}
	errs := telemetry.Lint(strings.NewReader(payload))
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "metricslint:", e)
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "metricslint: %d problem(s) in %d lines\n",
			len(errs), strings.Count(payload, "\n"))
		os.Exit(1)
	}
	families := strings.Count(payload, "# TYPE ")
	fmt.Printf("metricslint: OK — %d families, %d lines, well-formed exposition\n",
		families, strings.Count(payload, "\n"))
}

// gather produces the exposition payload from the requested source.
func gather(url, file string) (string, error) {
	switch {
	case url != "" && file != "":
		return "", fmt.Errorf("give -url or -file, not both")
	case file != "":
		b, err := os.ReadFile(file)
		return string(b), err
	case url != "":
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	default:
		return scrapeTestServer()
	}
}

// requiredFamilies are the observability families the in-process scrape
// must expose: the SLO layer and the flywheel event timeline. A refactor
// that silently drops one of these fails the CI gate here, not in an
// operator's dashboard.
var requiredFamilies = []string{
	"layoutd_slo_burn_rate",
	"layoutd_slo_state",
	"layoutd_slo_target",
	"layoutd_slo_health",
	"layoutd_slo_good_total",
	"layoutd_slo_bad_total",
	"layoutd_online_events_total",
	"layoutd_online_events_retained",
}

// scrapeTestServer runs one schedule decision through an in-process server
// so the scrape exercises request counters, the decision histogram, kernel
// collectors, and the trace store, then returns the /metrics body. Beyond
// the generic lint in main, it asserts the SLO and event families are
// present, the latency histogram carries a trace_id exemplar, and that
// exemplar's trace resolves at /v1/trace/{id}.
func scrapeTestServer() (string, error) {
	ex := exec.New(2, exec.Static)
	defer ex.Close()
	store := online.NewStore(64, nil)
	events := online.NewEventLog(0)
	s := serve.NewServer(serve.Config{
		Policy: core.Hybrid, Exec: ex, Stats: &exec.Stats{}, TopK: 2,
		Harvest:      func(r online.Record) { _ = store.Add(r) },
		OnlineEvents: events,
	})
	defer s.Drain()
	// The online flywheel contributes its layoutd_online_* families to the
	// same exposition; lint them together the way a `layoutd -online`
	// scrape would serve them.
	ctl, err := online.New(online.Config{
		Store:  store,
		Events: events,
		Lanes: []online.LaneConfig{
			online.SMSVLane(nil, learn.TrainConfig{}, func(context.Context, *learn.Forest) error { return nil }),
		},
	})
	if err != nil {
		return "", err
	}
	s.Registry().Register(ctl)
	ctl.Step()
	h := s.Handler()

	var data strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&data, "+1 %d:0.5 %d:1.5\n", 1+i%7, 8+i%11)
	}
	body := fmt.Sprintf(`{"data": %q}`, data.String())
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("in-process schedule request failed: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("/metrics: %d", rec.Code)
	}
	payload := rec.Body.String()
	for _, fam := range requiredFamilies {
		if !strings.Contains(payload, "# TYPE "+fam+" ") {
			return "", fmt.Errorf("required family %s missing from /metrics", fam)
		}
	}
	exs := telemetry.ParseExemplars(payload, "layoutd_request_duration_seconds")
	if len(exs) == 0 {
		return "", fmt.Errorf("layoutd_request_duration_seconds carries no trace_id exemplar after a schedule request")
	}
	for _, e := range exs {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/"+e.TraceID, nil))
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("exemplar trace %s does not resolve at /v1/trace/{id}: %d", e.TraceID, rec.Code)
		}
	}
	return payload, nil
}
