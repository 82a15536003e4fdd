package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// embedded is an embedded feature point: a fixed-width float array. The
// store is generic over the width so each workload keeps its own pinned
// embedding (dataset.Embed, dataset.EmbedPair) without a second copy of the
// scan or the file codec.
type embedded interface {
	~[dataset.EmbedDims]float64 | ~[dataset.PairEmbedDims]float64
}

// Recorded is one remembered decision in embedded form, exposed so the
// learned predictors can harvest every measurement the scheduler ever made
// as training data (the measure→train→predict flywheel); learn's training
// examples are the same pair.
type Recorded[P, C any] struct {
	Point     P
	Candidate C
}

// radiusStore is the scheduler's incremental auto-tuning memory for one
// workload: every measured decision is recorded as (embedded point → chosen
// candidate), and future inputs whose points land close enough to a
// recorded one reuse its candidate without re-measuring. Distance is
// Euclidean in the embedded space. The zero value is an empty store.
type radiusStore[P embedded, C fmt.Stringer] struct {
	mu      sync.Mutex
	entries []Recorded[P, C]
}

func dist2[P embedded](a, b P) float64 {
	var s float64
	for i := 0; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func (h *radiusStore[P, C]) record(p P, c C) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entries = append(h.entries, Recorded[P, C]{Point: p, Candidate: c})
}

// Len reports the number of recorded decisions.
func (h *radiusStore[P, C]) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// lookup returns the candidate of the nearest recorded decision within the
// given radius (in embedded-space distance), or ok=false when nothing is
// close enough.
func (h *radiusStore[P, C]) lookup(p P, radius float64) (c C, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	best := -1
	bestD := radius * radius
	for i := range h.entries {
		if d := dist2(p, h.entries[i].Point); d <= bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return c, false
	}
	return h.entries[best].Candidate, true
}

// Snapshot copies the recorded decisions. The copy is safe to read while
// other goroutines keep recording.
func (h *radiusStore[P, C]) Snapshot() []Recorded[P, C] {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Recorded[P, C](nil), h.entries...)
}

// historyCodec describes one workload's history file: a versioned header
// line, then one line per entry, "<p0> <p1> ... <pN-1> <candidate>".
type historyCodec[C any] struct {
	header string
	// headerless admits files with no header line at all — the SMSV v1 wire
	// form, whose bare format names parse as base candidates, so
	// pre-joint histories migrate in place and are upgraded on the next
	// Save. A wrong header is an error either way.
	headerless bool
	noun       string // names the file kind in error text
	parse      func(string) (C, error)
}

func (h *radiusStore[P, C]) save(w io.Writer, codec historyCodec[C]) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, codec.header)
	for _, e := range h.entries {
		for i := 0; i < len(e.Point); i++ {
			fmt.Fprintf(bw, "%.17g ", e.Point[i])
		}
		fmt.Fprintln(bw, e.Candidate)
	}
	return bw.Flush()
}

func (h *radiusStore[P, C]) load(r io.Reader, codec historyCodec[C]) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	sawHeader := codec.headerless
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if lineNo == 1 && line == codec.header {
				sawHeader = true
				continue
			}
			return fmt.Errorf("core: %s line %d: unsupported header %q (want %q)", codec.noun, lineNo, line, codec.header)
		}
		if !sawHeader {
			return fmt.Errorf("core: %s: missing %q header", codec.noun, codec.header)
		}
		var e Recorded[P, C]
		dims := len(e.Point)
		fields := strings.Fields(line)
		if len(fields) != dims+1 {
			return fmt.Errorf("core: %s line %d: %d fields, want %d", codec.noun, lineNo, len(fields), dims+1)
		}
		for i := 0; i < dims; i++ {
			x, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("core: %s line %d field %d: %v", codec.noun, lineNo, i, err)
			}
			e.Point[i] = x
		}
		c, err := codec.parse(fields[dims])
		if err != nil {
			return fmt.Errorf("core: %s line %d: %v", codec.noun, lineNo, err)
		}
		e.Candidate = c
		h.entries = append(h.entries, e)
	}
	return sc.Err()
}

// loadable is a tuning history as LoadHistory reads it: a *History or a
// *PairHistory, each of which decodes its own wire form.
type loadable[H any] interface {
	*H
	decode(r io.Reader) error
}

// LoadHistory reads the tuning-history file at path, in the wire form the
// history's Save writes. An empty path or a missing file is an empty
// history: every persisted history is loaded at startup and written back on
// exit, so on a first run there is nothing to read yet. An error reading or
// parsing the file names the path.
func LoadHistory[H any, PH loadable[H]](path string) (*H, error) {
	h := new(H)
	if path == "" {
		return h, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return h, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := PH(h).decode(f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// WriteFileAtomic replaces path with whatever write produces, or leaves it
// untouched: the bytes go to a sibling temp file that is synced and renamed
// over path only after write and Close both succeeded. Every loader of
// persisted state (histories, models, the harvest store) rejects a
// truncated file, so a save that fails or is killed half-way must never
// have opened the live file for writing.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// History is the SMSV tuning memory — the OSKI-style tuning-database idea
// applied to the paper's nine-parameter space, widened to the joint
// (format × chunk × variant) space. Points are dataset.Embed, the same
// pinned log-scaled embedding the learned format predictor (internal/learn)
// uses, so saved histories and trained models stay mutually compatible and
// "similar" means same shape class rather than same size.
type History struct {
	radiusStore[[dataset.EmbedDims]float64, sparse.Candidate]
}

var historyFile = historyCodec[sparse.Candidate]{
	header: "#layoutsched-history v2", headerless: true,
	noun: "history", parse: sparse.ParseCandidate,
}

// RecordCandidate stores a decided (features, candidate) pair.
func (h *History) RecordCandidate(f dataset.Features, c sparse.Candidate) {
	h.record(dataset.Embed(f), c)
}

// Lookup returns the candidate of the nearest recorded decision within
// radius of f's embedding, or ok=false when nothing is close enough.
func (h *History) Lookup(f dataset.Features, radius float64) (sparse.Candidate, bool) {
	return h.lookup(dataset.Embed(f), radius)
}

// Save writes the v2 wire form: a version header, then one line per entry:
// "<f0> <f1> ... <f6> <FORMAT>/<chunk>/<variant>".
func (h *History) Save(w io.Writer) error { return h.save(w, historyFile) }

// SaveFile writes the history to path atomically.
func (h *History) SaveFile(path string) error { return WriteFileAtomic(path, h.Save) }

// decode reads either wire version written by Save. v1 files (no header,
// bare format names) migrate in place: each entry loads as the format's base
// candidate, so a pre-joint history keeps steering decisions and is upgraded
// to v2 on the next Save.
func (h *History) decode(r io.Reader) error { return h.load(r, historyFile) }

// DefaultHistoryRadius is the reuse threshold: embedded points closer than
// this share a candidate. Calibrated so the Table V clones under different
// seeds reuse each other while structurally different datasets do not.
const DefaultHistoryRadius = 0.75

// PairHistory is the SpGEMM tuning memory: measured dataflow decisions
// recorded as (pairwise embedded point → spgemm candidate), reused for
// operand pairs whose shape classes land close enough. It lives in its own
// embedded space (dataset.EmbedPair) because the single-matrix embedding is
// pinned and cannot carry the interaction terms the dataflow choice hinges
// on.
type PairHistory struct {
	radiusStore[[dataset.PairEmbedDims]float64, spgemm.Candidate]
}

// The "v1" tracks dataset.PairEmbedVersion: a new embedding needs a new
// header so stale points are rejected rather than silently misread. There
// is no headerless legacy form.
var pairHistoryFile = historyCodec[spgemm.Candidate]{
	header: "#layoutsched-spgemm-history v1",
	noun:   "pair history", parse: spgemm.ParseCandidate,
}

// RecordCandidate stores a decided (pair features, candidate) entry.
func (h *PairHistory) RecordCandidate(fa, fb dataset.Features, c spgemm.Candidate) {
	h.record(dataset.EmbedPair(fa, fb), c)
}

// Lookup returns the candidate of the nearest recorded decision within
// radius of the pair's embedding, or ok=false when nothing is close enough.
func (h *PairHistory) Lookup(fa, fb dataset.Features, radius float64) (spgemm.Candidate, bool) {
	return h.lookup(dataset.EmbedPair(fa, fb), radius)
}

// Save writes the v1 wire form: the version header, then one line per
// entry: "<p0> ... <p11> <dataflow>/<AFORMAT>/<BFORMAT>".
func (h *PairHistory) Save(w io.Writer) error { return h.save(w, pairHistoryFile) }

// SaveFile writes the pair history to path atomically.
func (h *PairHistory) SaveFile(path string) error { return WriteFileAtomic(path, h.Save) }

// decode reads the v1 wire form; a missing or foreign header is an error.
func (h *PairHistory) decode(r io.Reader) error { return h.load(r, pairHistoryFile) }
