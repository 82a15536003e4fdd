package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIPipeline exercises the tool family end to end as real processes:
// datagen writes a LIBSVM file, svmtrain trains on it and saves a model,
// svmpredict applies the model back and reports accuracy, layoutsched
// analyzes the same file with a persistent tuning history, trains and
// scores predictors, and runs the same round trip for an SpGEMM pair.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "aloi.libsvm")
	model := filepath.Join(dir, "aloi.model")
	hist := filepath.Join(dir, "history.txt")

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		cmd.Dir = "."
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	run("./cmd/datagen", "-dataset", "aloi", "-o", data)
	if _, err := os.Stat(data); err != nil {
		t.Fatal(err)
	}
	out := run("./cmd/svmtrain", "-file", data, "-model", model, "-maxiter", "2000")
	if !strings.Contains(out, "Layout decision") || !strings.Contains(out, "Training accuracy") {
		t.Fatalf("svmtrain output missing sections:\n%s", out)
	}
	// Shrinking, second-order selection and the row cache train through the
	// same call, together.
	out = run("./cmd/svmtrain", "-file", data, "-shrink", "-wss2", "-cache", "16", "-maxiter", "2000")
	if !strings.Contains(out, "Layout decision") || !strings.Contains(out, "Training accuracy") {
		t.Fatalf("svmtrain -shrink -wss2 -cache output missing sections:\n%s", out)
	}
	out = run("./cmd/svmpredict", "-model", model, "-file", data, "-quiet")
	if !strings.Contains(out, "accuracy:") || !strings.Contains(out, "per-class metrics") {
		t.Fatalf("svmpredict output missing sections:\n%s", out)
	}
	out = run("./cmd/layoutsched", "-file", data, "-history", hist)
	if !strings.Contains(out, "Decision (hybrid policy)") {
		t.Fatalf("layoutsched output missing decision:\n%s", out)
	}
	// -json emits the layoutd wire format.
	out = run("./cmd/layoutsched", "-file", data, "-json")
	var dec struct {
		Policy   string `json:"policy"`
		Chosen   string `json:"chosen"`
		Features struct {
			M int `json:"m"`
		} `json:"features"`
		Estimates []struct {
			Format string `json:"format"`
		} `json:"estimates"`
	}
	if err := json.Unmarshal([]byte(out), &dec); err != nil {
		t.Fatalf("layoutsched -json output not JSON: %v\n%s", err, out)
	}
	if dec.Policy != "hybrid" || dec.Chosen == "" || dec.Features.M == 0 || len(dec.Estimates) != 5 {
		t.Fatalf("layoutsched -json incomplete: %+v", dec)
	}
	// Second run against the history must reuse.
	out = run("./cmd/layoutsched", "-file", data, "-history", hist)
	if !strings.Contains(out, "reused from tuning history") {
		t.Fatalf("layoutsched did not reuse history:\n%s", out)
	}
	// Train a format predictor on a small synthetic corpus, score it on a
	// held-out one, then use it to schedule without measuring.
	fmodel := filepath.Join(dir, "format.model.json")
	out = run("./cmd/layoutsched", "train", "-synthetic", "15", "-out", fmodel, "-seed", "1")
	if !strings.Contains(out, "trained") || !strings.Contains(out, "saved to") {
		t.Fatalf("train output missing summary:\n%s", out)
	}
	out = run("./cmd/layoutsched", "eval", "-model", fmodel, "-synthetic", "8", "-seed", "2")
	if !strings.Contains(out, "eval:") || !strings.Contains(out, "within") {
		t.Fatalf("eval output missing report:\n%s", out)
	}
	out = run("./cmd/layoutsched", "-file", data, "-policy", "predict",
		"-predictor", fmodel, "-min-confidence", "0.01", "-json")
	var pdec struct {
		Source     string  `json:"source"`
		Confidence float64 `json:"confidence"`
	}
	if err := json.Unmarshal([]byte(out), &pdec); err != nil {
		t.Fatalf("predict-policy -json output not JSON: %v\n%s", err, out)
	}
	if pdec.Source != "predictor" || pdec.Confidence <= 0 {
		t.Fatalf("predict-policy decision not attributed to the predictor: %+v", pdec)
	}
	// The SpGEMM family: decide a dataflow for A×B (tables, then -json),
	// train a pair predictor, score it, and schedule with it.
	opA, opB := filepath.Join(dir, "a.libsvm"), filepath.Join(dir, "b.libsvm")
	writeOperand := func(path string, rows, cols int) {
		t.Helper()
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			// Column cols in every row pins the operand's width.
			fmt.Fprintf(&sb, "+1 %d:1.5 %d:0.5 %d:1\n", 1+i%3, 4+i%(cols-4), cols)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeOperand(opA, 24, 16)
	writeOperand(opB, 16, 12)
	out = run("./cmd/layoutsched", "spgemm", opA, opB)
	if !strings.Contains(out, "Dataflow cost model") || !strings.Contains(out, "Decision (hybrid policy): run the") {
		t.Fatalf("layoutsched spgemm output missing sections:\n%s", out)
	}
	var sdec struct {
		Policy    string  `json:"policy"`
		Dataflow  string  `json:"dataflow"`
		Source    string  `json:"source"`
		Conf      float64 `json:"confidence"`
		Estimates []struct {
			Candidate string `json:"candidate"`
		} `json:"estimates"`
	}
	out = run("./cmd/layoutsched", "spgemm", "-json", opA, opB)
	if err := json.Unmarshal([]byte(out), &sdec); err != nil {
		t.Fatalf("layoutsched spgemm -json output not JSON: %v\n%s", err, out)
	}
	if sdec.Policy != "hybrid" || sdec.Dataflow == "" || len(sdec.Estimates) == 0 {
		t.Fatalf("layoutsched spgemm -json incomplete: %+v", sdec)
	}
	pmodel := filepath.Join(dir, "spgemm.model.json")
	out = run("./cmd/layoutsched", "train-spgemm", "-synthetic", "10", "-out", pmodel, "-seed", "1")
	if !strings.Contains(out, "measure-labeled 10 operand pairs") || !strings.Contains(out, "pair examples, saved to") {
		t.Fatalf("train-spgemm output missing summary:\n%s", out)
	}
	out = run("./cmd/layoutsched", "eval-spgemm", "-model", pmodel, "-synthetic", "5", "-seed", "2")
	if !strings.Contains(out, "eval:") || !strings.Contains(out, "within") {
		t.Fatalf("eval-spgemm output missing report:\n%s", out)
	}
	out = run("./cmd/layoutsched", "spgemm", "-policy", "predict",
		"-predictor", pmodel, "-min-confidence", "0.01", "-json", opA, opB)
	if err := json.Unmarshal([]byte(out), &sdec); err != nil {
		t.Fatalf("spgemm predict-policy -json output not JSON: %v\n%s", err, out)
	}
	if sdec.Source != "predictor" || sdec.Conf <= 0 {
		t.Fatalf("spgemm predict-policy decision not attributed to the predictor: %+v", sdec)
	}
	out = run("./cmd/benchtables", "-exp", "table2,scaling")
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "scaling study") {
		t.Fatalf("benchtables output missing tables:\n%s", out)
	}
	// One example as a smoke test of the public-API path.
	out = run("./examples/quickstart")
	if !strings.Contains(out, "decision:") || !strings.Contains(out, "accuracy:") {
		t.Fatalf("quickstart output missing sections:\n%s", out)
	}
}

// TestLayoutdDaemon boots the real daemon as a child process, exercises the
// HTTP API end to end — schedule twice (miss then cache hit), predict-less
// 503, metrics — and verifies graceful shutdown persists the tuning
// history.
func TestLayoutdDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "adult.libsvm")
	hist := filepath.Join(dir, "layoutd.hist")

	gen := exec.Command("go", "run", "./cmd/datagen", "-dataset", "adult", "-o", data)
	if out, err := gen.CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	fmodel := filepath.Join(dir, "format.model.json")
	train := exec.Command("go", "run", "./cmd/layoutsched", "train",
		"-synthetic", "10", "-out", fmodel, "-seed", "1")
	if out, err := train.CombinedOutput(); err != nil {
		t.Fatalf("layoutsched train: %v\n%s", err, out)
	}
	// The SpGEMM half of the daemon is wired from its own flags: a pair
	// model, a pair history, and an A×B operand pair to schedule.
	pmodel := filepath.Join(dir, "spgemm.model.json")
	phist := filepath.Join(dir, "layoutd.phist")
	trainPair := exec.Command("go", "run", "./cmd/layoutsched", "train-spgemm",
		"-synthetic", "10", "-out", pmodel, "-seed", "1")
	if out, err := trainPair.CombinedOutput(); err != nil {
		t.Fatalf("layoutsched train-spgemm: %v\n%s", err, out)
	}
	opA, opB := filepath.Join(dir, "a.libsvm"), filepath.Join(dir, "b.libsvm")
	operand := func(path string, rows, cols int) string {
		t.Helper()
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			// Column cols in every row pins the operand's width.
			fmt.Fprintf(&sb, "+1 %d:1.5 %d:0.5 %d:1\n", 1+i%3, 4+i%(cols-4), cols)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	rawA, rawB := operand(opA, 24, 16), operand(opB, 16, 12)

	// A corrupt predictor must fail startup with the file named — never
	// surface mid-request.
	badModel := filepath.Join(dir, "bad.model.json")
	if err := os.WriteFile(badModel, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := exec.Command("go", "run", "./cmd/layoutd", "-addr", "127.0.0.1:0", "-predictor", badModel)
	if out, err := bad.CombinedOutput(); err == nil || !strings.Contains(string(out), badModel) {
		t.Fatalf("corrupt predictor did not fail startup naming the file (err %v):\n%s", err, out)
	}

	daemon := exec.Command("go", "run", "./cmd/layoutd",
		"-addr", "127.0.0.1:0", "-history", hist, "-max-inflight", "2",
		"-predictor", fmodel, "-min-confidence", "0.01",
		"-spgemm-history", phist, "-spgemm-predictor", pmodel)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	// go run re-spawns the built binary; a process group lets the SIGTERM
	// reach the daemon itself.
	daemon.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var logs bytes.Buffer

	// The startup log names the bound port.
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		line := sc.Text()
		logs.WriteString(line + "\n")
		if i := strings.Index(line, "layoutd listening on "); i >= 0 {
			base = "http://" + strings.Fields(line[i+len("layoutd listening on "):])[0]
			break
		}
	}
	if base == "" {
		daemon.Process.Kill()
		t.Fatalf("daemon never announced its address:\n%s", logs.String())
	}
	go func() {
		io.Copy(&logs, stderr) // keep draining so the child never blocks
		done <- daemon.Wait()
	}()
	defer syscall.Kill(-daemon.Process.Pid, syscall.SIGKILL)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path string, body any) (int, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	// The predict policy is exercised first, before any measurement records
	// adult's shape into the tuning history — a history near-miss would
	// otherwise answer before the predictor is consulted.
	code, body := post("/v1/schedule", map[string]string{"data": string(raw), "policy": "predict"})
	if code != 200 || !strings.Contains(body, `"source":"predictor"`) {
		t.Fatalf("predict-policy schedule: %d %s", code, body)
	}
	code, body = post("/v1/predict-format", map[string]string{"data": string(raw)})
	if code != 200 || !strings.Contains(body, `"format"`) || !strings.Contains(body, `"confidence"`) {
		t.Fatalf("predict-format: %d %s", code, body)
	}
	req := map[string]string{"data": string(raw)}
	code, body = post("/v1/schedule", req)
	if code != 200 || !strings.Contains(body, `"source":"measured"`) {
		t.Fatalf("first schedule: %d %s", code, body)
	}
	code, body = post("/v1/schedule", req)
	if code != 200 || !strings.Contains(body, `"source":"cache"`) {
		t.Fatalf("second schedule not cached: %d %s", code, body)
	}
	if code, body := post("/v1/predict", map[string]any{"rows": []string{"1:1"}}); code != 503 {
		t.Fatalf("predict without model: %d %s", code, body)
	}
	// The pair predictor answers first, while the pair history is empty;
	// the default policy then measures, which records into the history.
	pairReq := map[string]string{"a": rawA, "b": rawB, "policy": "predict"}
	code, body = post("/v1/schedule/spgemm", pairReq)
	if code != 200 || !strings.Contains(body, `"source":"predictor"`) {
		t.Fatalf("predict-policy spgemm: %d %s", code, body)
	}
	delete(pairReq, "policy")
	code, body = post("/v1/schedule/spgemm", pairReq)
	if code != 200 || !strings.Contains(body, `"source":"measured"`) {
		t.Fatalf("measured spgemm: %d %s", code, body)
	}
	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, "layoutd_cache_hits_total 1") ||
		!strings.Contains(body, "layoutd_measurements_total 1") ||
		!strings.Contains(body, "layoutd_predictor_loaded 1") ||
		!strings.Contains(body, "layoutd_predictor_hits_total 1") ||
		!strings.Contains(body, "layoutd_spgemm_predictor_loaded 1") ||
		!strings.Contains(body, "layoutd_spgemm_predictor_hits_total 1") {
		t.Fatalf("metrics: %d\n%s", code, body)
	}

	// Graceful shutdown must persist the history learned from the
	// measured decision.
	syscall.Kill(-daemon.Process.Pid, syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", logs.String())
	}
	// Shutdown summarizes each workload's predictor on its own line.
	for _, want := range []string{"workload=smsv hits=1", "workload=spgemm-pair hits=1"} {
		if !strings.Contains(logs.String(), `msg="predictor summary" `+want) {
			t.Fatalf("shutdown log has no predictor summary %q:\n%s", want, logs.String())
		}
	}
	// go run may report exit before the daemon child finishes persisting;
	// poll briefly for the file.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := os.ReadFile(hist)
		if err == nil && len(strings.TrimSpace(string(h))) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history not written after shutdown (%v):\n%s", err, logs.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	// So must the pair history: the CLI reloads it and reuses the measured
	// decision for the same operands.
	for {
		if _, err := os.Stat(phist); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pair history not written after shutdown:\n%s", logs.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	reuse := exec.Command("go", "run", "./cmd/layoutsched", "spgemm", "-history", phist, opA, opB)
	if out, err := reuse.CombinedOutput(); err != nil || !strings.Contains(string(out), "reused from pair tuning history") {
		t.Fatalf("pair history did not reload with the measured entry (err %v):\n%s", err, out)
	}
}
