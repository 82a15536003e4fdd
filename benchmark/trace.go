package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span names. They are ROADMAP's stage vocabulary: the in-program spans a
// later issue adds (layoutd_stage_seconds) reuse exactly these names, so a
// production histogram and a spans file from here measure the same stage.
const (
	spRequest = "request" // the real call, client send to last byte read
	spHandler = "handler" // in-process ServeHTTP on the same body
	spDecode  = "decode"  // JSON envelope -> request struct
	spParse   = "parse"   // LIBSVM text -> samples -> builder
	spExtract = "extract" // build CSR + the nine Table IV parameters
	spRoute   = "route"   // shape-class key + ring owner lookup
	spCache   = "cache"   // decision cache probe
	spDecide  = "decide"  // scheduler: measure / history / predict
	spEncode  = "encode"  // reply struct -> indented JSON
	spForward = "forward" // one hop to the ring owner and back
	spTrain   = "train"   // SMO on the chosen layout (svm_train)
)

// span is one timed interval of one op. Parent is the index of the
// enclosing span in the same file, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// tracer keeps a run's spans in memory; they are written once, at exit.
// Root spans carry the times of the real call. Stages are replayed after
// the load has stopped (replaying inline would double each op's work and
// perturb what is being measured), so child spans are laid end to end
// from their parent's start: durations are measured, positions are not.
type tracer struct {
	t0     time.Time
	spans  []span
	cursor []int64 // where each span's next child starts
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) root(name string, start time.Time, d time.Duration, opID int) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Parent: -1, OpID: opID})
	t.cursor = append(t.cursor, s)
	return len(t.spans) - 1
}

// child appends a span of duration d under parent, after its siblings.
func (t *tracer) child(parent int, name string, d time.Duration) int {
	s := t.cursor[parent]
	t.cursor[parent] = s + d.Nanoseconds()
	t.spans = append(t.spans, span{Name: name, StartNs: s, EndNs: s + d.Nanoseconds(), Parent: parent, OpID: t.spans[parent].OpID})
	t.cursor = append(t.cursor, s)
	return len(t.spans) - 1
}

// stage times fn and records it as a child of parent.
func (t *tracer) stage(parent int, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.child(parent, name, d)
	return d
}

// durations lists the lengths of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover: overlapping children count once, and a child
// reaching outside its parent counts only for the part inside.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
