package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/spgemm"
	"repro/internal/telemetry"
)

// goodOptions is a baseline that passes validation (it would bind a real
// listener if run past validation, so tests only use it mutated to fail).
func goodOptions() options {
	return options{
		addr: "127.0.0.1:0", policy: "hybrid",
		maxInflight: 4, maxBatch: serve.MaxBatchItems,
		timeout: time.Second, maxBody: 1 << 20, cacheCap: 16,
		logLevel: "error", logFormat: "text",
		traceBuffer: telemetry.DefaultTraceCapacity,
		sloLatency:  500 * time.Millisecond,
		traceFetch:  3 * time.Second, tracePeer: time.Second,
	}
}

// onlineDefaults arms -online with the flag-default knobs so each test
// case below can break exactly one of them.
func onlineDefaults(o *options) {
	o.online = true
	o.retrainInterval = time.Minute
	o.shadowWindow = 256
	o.promoteMargin = 0.05
	o.rollbackRegret = 1.5
}

func TestRunRejectsBadFlags(t *testing.T) {
	type badFlags struct {
		name    string
		mutate  func(*options)
		wantSub string
	}
	cases := []badFlags{
		{"zero max-batch", func(o *options) { o.maxBatch = 0 }, "-max-batch"},
		{"negative max-batch", func(o *options) { o.maxBatch = -3 }, "-max-batch"},
		{"zero trace-buffer", func(o *options) { o.traceBuffer = 0 }, "-trace-buffer"},
		{"negative trace-buffer", func(o *options) { o.traceBuffer = -1 }, "-trace-buffer"},
		{"zero slo latency objective", func(o *options) { o.sloLatency = 0 }, "-slo-latency-objective"},
		{"zero trace fetch timeout", func(o *options) { o.traceFetch = 0 }, "-trace-fetch-timeout"},
		{"negative trace fetch peer timeout", func(o *options) { o.tracePeer = -time.Second }, "-trace-fetch-peer-timeout"},
		{"peer timeout over overall timeout", func(o *options) {
			o.traceFetch, o.tracePeer = time.Second, 2*time.Second
		}, "-trace-fetch-peer-timeout"},
		{"unknown policy", func(o *options) { o.policy = "vibes" }, "unknown policy"},
		{"node-id without peers", func(o *options) { o.nodeID = "n1" }, "-node-id"},
		{"peers without node-id", func(o *options) { o.peers = "n1=http://h:1" }, "-node-id"},
		{"node-id not in peers", func(o *options) {
			o.peers, o.nodeID = "n1=http://h:1,n2=http://h:2", "n3"
		}, "not in peer list"},
		{"malformed peers", func(o *options) {
			o.peers, o.nodeID = "n1@h:1", "n1"
		}, "peer"},
		{"negative vnodes", func(o *options) { o.vnodes = -8 }, "-vnodes"},
		{"negative vnodes with peers", func(o *options) {
			o.peers, o.nodeID, o.vnodes = "n1=http://h:1,n2=http://h:2", "n1", -1
		}, "-vnodes"},
		{"online-store without online", func(o *options) {
			o.onlineStorePath = "harvest.log"
		}, "-online"},
		{"online zero retrain interval", func(o *options) {
			onlineDefaults(o)
			o.retrainInterval = 0
		}, "-retrain-interval"},
		{"online zero shadow window", func(o *options) {
			onlineDefaults(o)
			o.shadowWindow = 0
		}, "-shadow-window"},
		{"online negative promote margin", func(o *options) {
			onlineDefaults(o)
			o.promoteMargin = -0.1
		}, "-promote-margin"},
		{"online promote margin over one", func(o *options) {
			onlineDefaults(o)
			o.promoteMargin = 1.5
		}, "-promote-margin"},
		{"online rollback regret below one", func(o *options) {
			onlineDefaults(o)
			o.rollbackRegret = 0.5
		}, "-rollback-regret"},
	}
	// Each workload's persisted state fails startup with the file named:
	// a corrupt history, a missing predictor, a corrupt predictor.
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(corrupt, []byte("#layoutsched-history v2\n1 2 3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"smsv", "spgemm"} {
		missing := filepath.Join(dir, name+"-model.json")
		cases = append(cases,
			badFlags{"corrupt " + name + " history", func(o *options) { o.files[i].history = corrupt }, corrupt},
			badFlags{"missing " + name + " predictor", func(o *options) { o.files[i].predictor = missing }, missing},
			badFlags{"corrupt " + name + " predictor", func(o *options) { o.files[i].predictor = corrupt }, corrupt})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := goodOptions()
			tc.mutate(&o)
			err := run(o)
			if err == nil {
				t.Fatal("run accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the problem (%q)", err, tc.wantSub)
			}
		})
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// harvestRecord is a minimal valid SMSV record for persistence tests.
func harvestRecord() online.Record {
	return online.Record{
		Kind: online.KindSMSV,
		F: dataset.Features{
			M: 40, N: 30, NNZ: 120, Ndig: 15, Dnnz: 3,
			Mdim: 8, Adim: 4, Vdim: 2, Density: 0.1,
		},
		Label: "CSR/static/base",
		Times: map[string]int64{"CSR/static/base": 100, "COO/static/base": 250},
	}
}

// cutWriter passes the first left bytes through, then fails: a disk filling
// up, or the process dying, half-way through a save.
type cutWriter struct {
	w    io.Writer
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) > c.left {
		n, _ := c.w.Write(p[:c.left])
		c.left = 0
		return n, errors.New("disk full")
	}
	c.left -= len(p)
	return c.w.Write(p)
}

// TestPersistedStateSavesAtomically: every file the daemon loads at boot
// rejects a truncated copy, so no save may open the live file for writing.
// A save whose writer fails half-way — and a SaveFile that cannot even
// create its temp sibling — leaves the previous file byte-identical and no
// .tmp behind, and what was saved loads back.
func TestPersistedStateSavesAtomically(t *testing.T) {
	feats := harvestRecord().F
	hist := &core.History{}
	hist.RecordCandidate(feats, sparse.BaseCandidate(sparse.CSR))
	pairHist := &core.PairHistory{}
	pairHist.RecordCandidate(feats, feats, spgemm.BaseCandidate)
	forest, err := learn.Train([]learn.Example{learn.FromFeatures(feats, sparse.BaseCandidate(sparse.CSR))}, learn.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pairForest, err := learn.TrainPair([]learn.PairExample{learn.FromPairFeatures(feats, feats, spgemm.BaseCandidate)}, learn.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store := online.NewStore(16, nil)
	for i := 0; i < 3; i++ {
		if err := store.Add(harvestRecord()); err != nil {
			t.Fatal(err)
		}
	}
	loaded := func(n int, err error) error {
		if err == nil && n == 0 {
			err = errors.New("loaded back empty")
		}
		return err
	}
	for _, tc := range []struct {
		name     string
		write    func(io.Writer) error
		saveFile func(path string) error
		load     func(path string) error
	}{
		{"history", hist.Save, hist.SaveFile, func(p string) error {
			h, err := learn.SMSV.LoadHistory(p)
			return loaded(h.Len(), err)
		}},
		{"pair history", pairHist.Save, pairHist.SaveFile, func(p string) error {
			h, err := learn.SpGEMM.LoadHistory(p)
			return loaded(h.Len(), err)
		}},
		{"model", forest.Save, forest.SaveFile, func(p string) error {
			f, err := learn.SMSV.LoadModelFile(p)
			return loaded(f.Trees(), err)
		}},
		{"pair model", pairForest.Save, pairForest.SaveFile, func(p string) error {
			f, err := learn.SpGEMM.LoadModelFile(p)
			return loaded(f.Trees(), err)
		}},
		{"harvest store", store.Save,
			func(p string) error { return core.WriteFileAtomic(p, store.Save) },
			func(p string) error { return loaded(loadOnlineStore(p, 16, quietLogger()).Len(), nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state")
			if err := tc.saveFile(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			unchanged := func(after string) {
				t.Helper()
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, before) {
					t.Fatalf("%s: live file changed (err %v):\n%s", after, err, got)
				}
				if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
					t.Fatalf("%s: temp file left behind (stat err %v)", after, err)
				}
			}
			unchanged("a completed save")
			err = core.WriteFileAtomic(path, func(w io.Writer) error {
				return tc.write(&cutWriter{w: w, left: len(before) / 2})
			})
			if err == nil {
				t.Fatal("a save whose writer failed half-way reported success")
			}
			unchanged("a save cut half-way")
			if err := os.Mkdir(path+".tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := tc.saveFile(path); err == nil {
				t.Fatal("SaveFile succeeded without its temp sibling: it does not go through the atomic helper")
			}
			if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			unchanged("a save that could not create its temp file")
			if err := tc.load(path); err != nil {
				t.Fatalf("saved file does not load back: %v", err)
			}
		})
	}
}

// TestModelLoaderAndInstaller drives both workloads' instantiations of the
// generic wiring: configure hands serve a loader that decodes a saved forest
// into the predictor interface serve swaps in, and installer swaps a fitted
// forest in and a nil one out, each into its own workload's slot.
func TestModelLoaderAndInstaller(t *testing.T) {
	feats := harvestRecord().F
	forest, err := learn.Train([]learn.Example{learn.FromFeatures(feats, sparse.BaseCandidate(sparse.CSR))}, learn.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pairForest, err := learn.TrainPair([]learn.PairExample{learn.FromPairFeatures(feats, feats, spgemm.BaseCandidate)}, learn.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var files [2]workloadFiles
	var cfg serve.Config
	for _, w := range daemonWorkloads(&files) {
		if err := w.load(quietLogger()); err != nil {
			t.Fatal(err)
		}
		w.configure(&cfg)
	}
	if cfg.History == nil || cfg.PairHistory == nil || cfg.Predictor != nil || cfg.PairPredictor != nil {
		t.Fatalf("no files: config %+v, want empty histories and no predictors", cfg)
	}
	var buf bytes.Buffer
	if err := forest.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if p, err := cfg.ModelLoader(buf.Bytes()); err != nil || p == nil {
		t.Fatalf("format model did not load: %v %v", p, err)
	}
	if p, err := cfg.ModelLoader([]byte("{")); err == nil || p != nil {
		t.Fatalf("corrupt model loaded as %v (err %v), want a nil predictor and an error", p, err)
	}
	if p, err := cfg.PairModelLoader(buf.Bytes()); err == nil || p != nil {
		t.Fatalf("format model loaded as a pair model: %v %v", p, err)
	}
	buf.Reset()
	if err := pairForest.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if p, err := cfg.PairModelLoader(buf.Bytes()); err != nil || p == nil {
		t.Fatalf("pair model did not load: %v %v", p, err)
	}

	s := serve.NewServer(cfg)
	ctx := context.Background()
	predictorLoaded := func(family string) bool {
		t.Helper()
		var out bytes.Buffer
		s.Registry().WriteText(&out)
		return strings.Contains(out.String(), family+" 1\n")
	}
	install := installer[*learn.Forest](s, quietLogger(), learn.SMSV.Kind, learn.SMSV.Predictor)
	if err := install(ctx, forest); err != nil {
		t.Fatal(err)
	}
	if !predictorLoaded("layoutd_predictor_loaded") || predictorLoaded("layoutd_spgemm_predictor_loaded") {
		t.Fatal("format install did not land in the SMSV slot alone")
	}
	if err := install(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if predictorLoaded("layoutd_predictor_loaded") {
		t.Fatal("nil install did not unload the format predictor")
	}
	pairInstall := installer[*learn.PairForest](s, quietLogger(), learn.SpGEMM.Kind, learn.SpGEMM.Predictor)
	if err := pairInstall(ctx, pairForest); err != nil {
		t.Fatal(err)
	}
	if !predictorLoaded("layoutd_spgemm_predictor_loaded") || predictorLoaded("layoutd_predictor_loaded") {
		t.Fatal("pair install did not land in the SpGEMM slot alone")
	}
}

// TestLoadOnlineStoreToleratesCorruptFile: the harvest file is an
// advisory cache — a truncated or garbage file (e.g. from a crash
// mid-save) must yield an empty store, never block startup.
func TestLoadOnlineStoreToleratesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, content string
	}{
		{"garbage", "not a harvest file\n"},
		{"truncated record", "layoutd-online-harvest v1\n{\"kind\":\"smsv\",\"se"},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			st := loadOnlineStore(path, 16, quietLogger())
			if st == nil || st.Len() != 0 {
				t.Fatalf("corrupt file %q: store=%v len=%d, want empty store", tc.name, st, st.Len())
			}
			// The daemon keeps harvesting into the fallback store.
			if err := st.Add(harvestRecord()); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A missing file is the normal first boot.
	if st := loadOnlineStore(filepath.Join(dir, "nope"), 16, quietLogger()); st.Len() != 0 {
		t.Fatal("missing file did not start empty")
	}
}
