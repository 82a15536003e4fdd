package serve

import (
	"bufio"
	"context"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/telemetry"
)

// TestEveryFamilyHasAReader is the executable form of the reader rule
// (DESIGN §10): every family a clustered, -online node exports is named in
// full by a reader — a test file other than this one, cmd/loadgen,
// cmd/metricslint or the benchmark. A family nothing reads is deleted with
// the counter behind it, not kept for a dashboard nobody draws.
func TestEveryFamilyHasAReader(t *testing.T) {
	store := online.NewStore(64, nil)
	events := online.NewEventLog(0)
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.Stats = &exec.Stats{}
		if i == 0 {
			cfg.OnlineEvents = events
			cfg.Harvest = func(r online.Record) { _ = store.Add(r) }
		}
	})
	nd := nodes[0]
	ctl, err := online.New(online.Config{Store: store, Events: events, Lanes: []online.LaneConfig{
		online.SMSVLane(nil, learn.TrainConfig{}, func(context.Context, *learn.Forest) error { return nil }),
		online.PairLane(nil, learn.TrainConfig{}, func(context.Context, *learn.PairForest) error { return nil }),
	}})
	if err != nil {
		t.Fatal(err)
	}
	nd.srv.Registry().Register(ctl)

	// One measurement decided here, whoever owns its class: the kernel
	// families appear once a kernel has run.
	req, err := http.NewRequest(http.MethodPost, nd.url+"/v1/schedule",
		strings.NewReader(`{"data":"1 1:0.5 3:1.5\n-1 2:1 4:2\n1 1:1 2:0.5 4:1\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardedHeader, "n2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || nd.srv.Measurements() != 1 {
		t.Fatalf("local schedule: status %d, %d measurements", resp.StatusCode, nd.srv.Measurements())
	}

	// A point no code fires: the fault families appear while it is armed.
	arm(t, "readers.never.err=1")
	armed := getMetrics(t, nd.srv.Handler())
	fault.Enable(nil)
	disarmed := getMetrics(t, nd.srv.Handler())

	kinds := map[string]string{}
	for _, scrape := range []string{armed, disarmed} {
		for _, e := range telemetry.Lint(strings.NewReader(scrape)) {
			t.Error(e)
		}
		for name, kind := range scrapeTypes(scrape) {
			kinds[name] = kind
		}
	}
	t.Logf("%d families, %d while faults are armed", len(scrapeTypes(disarmed)), len(scrapeTypes(armed)))

	corpus := readerCorpus(t)
	var unread []string
	for name, kind := range kinds {
		if !namedIn(corpus, workloadAliases(name, kinds), kind == "histogram") {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s has no reader: assert it in a test, or delete it with its counter", name)
	}
}

// scrapeTypes maps every family of an exposition to its TYPE.
func scrapeTypes(scrape string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			if name, kind, ok := strings.Cut(rest, " "); ok {
				out[name] = kind
			}
		}
	}
	return out
}

// workloadAliases is the one family registerWorkloadMetrics registers for
// both workloads, under both of its names: a reader of either reads both.
func workloadAliases(name string, kinds map[string]string) []string {
	const prefix, infix = "layoutd_", "spgemm_"
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return []string{name}
	}
	if base, ok := strings.CutPrefix(rest, infix); ok {
		if _, twin := kinds[prefix+base]; twin {
			return []string{name, prefix + base}
		}
	} else if _, twin := kinds[prefix+infix+rest]; twin {
		return []string{name, prefix + infix + rest}
	}
	return []string{name}
}

// namedIn reports whether the corpus names any of the family names as a
// whole word; a histogram may be named by its _bucket, _sum or _count series.
func namedIn(corpus string, names []string, histogram bool) bool {
	word := func(i int) bool {
		if i < 0 || i >= len(corpus) {
			return false
		}
		c := corpus[i]
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
	}
	for _, n := range names {
		for from := 0; ; {
			i := strings.Index(corpus[from:], n)
			if i < 0 {
				break
			}
			start, end := from+i, from+i+len(n)
			from = end
			if word(start - 1) {
				continue
			}
			if histogram {
				for _, s := range []string{"_bucket", "_sum", "_count"} {
					if strings.HasPrefix(corpus[end:], s) {
						end += len(s)
						break
					}
				}
			}
			if !word(end) {
				return true
			}
		}
	}
	return false
}

// readerCorpus is the text of every reader: the module's test files but
// this one, and the Go sources of cmd/loadgen, cmd/metricslint and the
// benchmark.
func readerCorpus(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("readers_test.go")
	if err != nil {
		t.Fatal(err)
	}
	tools := []string{"cmd/loadgen/", "cmd/metricslint/", "benchmark/"}
	var b strings.Builder
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		reader := strings.HasSuffix(rel, "_test.go") && path != self
		for _, dir := range tools {
			reader = reader || strings.HasPrefix(rel, dir) && strings.HasSuffix(rel, ".go")
		}
		if !reader {
			return nil
		}
		src, err := os.ReadFile(path)
		b.Write(src)
		b.WriteByte('\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
