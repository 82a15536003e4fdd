package serve

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the reply half of the three decision endpoints: a 200 from
// /v1/schedule, /v1/schedule/batch or /v1/schedule/spgemm is appended into
// the request scratch's buffer and written once. The bytes are, by
// construction and by FuzzEncodeDecision, what json.Marshal of the exported
// wire struct plus "\n" produces — same field order, omitempty rules,
// HTML-escaping, invalid-UTF-8 replacement and float form — so the structs
// in types.go and spgemm.go remain the wire contract and a client cannot
// tell which encoder answered. Everything else the server says (errors,
// health, traces, predictions) goes through encoding/json.
//
// The shape is one set of primitives and two field lists, SMSV and SpGEMM:
// the pair DESIGN §7 keeps apart on purpose.

// wire is a JSON value being appended. The zero value is ready to use.
type wire struct {
	b []byte
	// nonFinite records that a NaN or an infinity was appended: JSON has no
	// spelling for one and encoding/json refuses the whole value, so the
	// reply must not be sent.
	nonFinite bool
}

func (w *wire) reset() { w.b, w.nonFinite = w.b[:0], false }

// raw appends s as it is: punctuation, keys and already-encoded fragments.
func (w *wire) raw(s string) { w.b = append(w.b, s...) }

func (w *wire) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

// float appends f as encoding/json spells a float64: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent not padded to two.
func (w *wire) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.nonFinite = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// str appends s as a JSON string.
func (w *wire) str(s string) { w.b = appendJSONString(w.b, s) }

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries as they are under
// encoding/json's default (HTML-escaping) encoder: everything printable
// but the quote, the backslash and <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends src, quoted and escaped as encoding/json escapes
// a string: short escapes for the quote, the backslash and \b \f \n \r \t,
// \u00XX for the other control characters and for <, > and &, U+2028 and
// U+2029 spelled out, and each byte of invalid UTF-8 replaced by U+FFFD.
func appendJSONString[T string | []byte](dst []byte, src T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if c := src[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's worth is converted, so a []byte source costs no
		// allocation here.
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// features appends the nine Table IV parameters.
func (w *wire) features(f *FeaturesJSON) {
	w.raw(`{"m":`)
	w.int(int64(f.M))
	w.raw(`,"n":`)
	w.int(int64(f.N))
	w.raw(`,"nnz":`)
	w.int(f.NNZ)
	w.raw(`,"ndig":`)
	w.int(int64(f.Ndig))
	w.raw(`,"dnnz":`)
	w.float(f.Dnnz)
	w.raw(`,"mdim":`)
	w.int(int64(f.Mdim))
	w.raw(`,"adim":`)
	w.float(f.Adim)
	w.raw(`,"vdim":`)
	w.float(f.Vdim)
	w.raw(`,"density":`)
	w.float(f.Density)
	w.raw(`}`)
}

// optStr, optFloat and optBool append an omitempty field: nothing for the
// empty string, for a float that equals zero (-0 included; a NaN does not)
// and for false.
func (w *wire) optStr(key, s string) {
	if s != "" {
		w.raw(key)
		w.str(s)
	}
}

func (w *wire) optFloat(key string, f float64) {
	if f != 0 {
		w.raw(key)
		w.float(f)
	}
}

func (w *wire) optBool(key string, v bool) {
	if v {
		w.raw(key)
		w.raw("true")
	}
}

// rendered is the part of a decision reply that exists as JSON before the
// reply is built. A non-empty fragment is spliced in place of the struct
// field it stands for.
type rendered struct {
	// measured is the "measured" array, brackets included, as the decision's
	// cache entry rendered it once (evidence.json).
	measured []byte
	// trace is the elements of the "trace" array, encoded as they were noted
	// (traceLines.elems).
	trace []byte
}

// list appends "[" each(0) "," each(1) ... "]".
func (w *wire) list(n int, each func(i int)) {
	w.raw("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			w.raw(",")
		}
		each(i)
	}
	w.raw("]")
}

// tail appends the fields both decisions end with: measured (spliced from
// pre when the cache entry rendered it, else rows encodes the struct's),
// degraded, trace_id and trace.
func (w *wire) tail(pre rendered, rows int, row func(i int), degraded bool, traceID string, trace []string) {
	switch {
	case len(pre.measured) > 0:
		w.raw(`,"measured":`)
		w.b = append(w.b, pre.measured...)
	case rows > 0:
		w.raw(`,"measured":`)
		w.list(rows, row)
	}
	w.optBool(`,"degraded":`, degraded)
	w.optStr(`,"trace_id":`, traceID)
	switch {
	case len(pre.trace) > 0:
		w.raw(`,"trace":[`)
		w.b = append(w.b, pre.trace...)
		w.raw("]")
	case len(trace) > 0:
		w.raw(`,"trace":`)
		w.list(len(trace), func(i int) { w.str(trace[i]) })
	}
}

func (m MeasurementJSON) appendTo(w *wire) {
	w.raw(`{"format":`)
	w.str(m.Format)
	w.optStr(`,"chunk":`, m.Chunk)
	w.optStr(`,"variant":`, m.Variant)
	w.raw(`,"nanos":`)
	w.int(m.Nanos)
	w.raw(`,"millis":`)
	w.float(m.Millis)
	w.raw(`}`)
}

// decision appends a DecisionJSON: the SMSV field list.
func (w *wire) decision(d *DecisionJSON, pre rendered) {
	w.raw(`{"policy":`)
	w.str(d.Policy)
	w.raw(`,"chosen":`)
	w.str(d.Chosen)
	w.optStr(`,"chunk":`, d.Chunk)
	w.optStr(`,"variant":`, d.Variant)
	w.raw(`,"features":`)
	w.features(&d.Features)
	w.raw(`,"source":`)
	w.str(d.Source)
	w.optFloat(`,"confidence":`, d.Confidence)
	if len(d.Estimates) > 0 {
		w.raw(`,"estimates":`)
		w.list(len(d.Estimates), func(i int) {
			e := &d.Estimates[i]
			w.raw(`{"format":`)
			w.str(e.Format)
			w.raw(`,"bytes":`)
			w.int(e.Bytes)
			w.raw(`,"weight":`)
			w.float(e.Weight)
			w.raw(`,"imbalance":`)
			w.float(e.Imbalance)
			w.raw(`,"cost":`)
			w.float(e.Cost)
			w.raw(`}`)
		})
	}
	w.tail(pre, len(d.Measured), func(i int) { d.Measured[i].appendTo(w) }, d.Degraded, d.TraceID, d.Trace)
	w.raw(`}`)
}

func (m PairMeasurementJSON) appendTo(w *wire) {
	w.raw(`{"candidate":`)
	w.str(m.Candidate)
	w.raw(`,"nanos":`)
	w.int(m.Nanos)
	w.raw(`,"millis":`)
	w.float(m.Millis)
	w.raw(`}`)
}

// pairDecision appends a SpGEMMDecisionJSON: the SpGEMM field list.
func (w *wire) pairDecision(d *SpGEMMDecisionJSON, pre rendered) {
	w.raw(`{"policy":`)
	w.str(d.Policy)
	w.raw(`,"chosen":`)
	w.str(d.Chosen)
	w.raw(`,"dataflow":`)
	w.str(d.Dataflow)
	w.raw(`,"a_format":`)
	w.str(d.AFormat)
	w.raw(`,"b_format":`)
	w.str(d.BFormat)
	w.raw(`,"a_features":`)
	w.features(&d.AFeatures)
	w.raw(`,"b_features":`)
	w.features(&d.BFeatures)
	w.raw(`,"source":`)
	w.str(d.Source)
	w.optFloat(`,"confidence":`, d.Confidence)
	w.optFloat(`,"estimated_nnz":`, d.EstimatedNNZ)
	if d.OutputNNZ != 0 {
		w.raw(`,"output_nnz":`)
		w.int(d.OutputNNZ)
	}
	w.raw(`,"estimates":`)
	if d.Estimates == nil {
		w.raw("null")
	} else {
		w.list(len(d.Estimates), func(i int) {
			e := &d.Estimates[i]
			w.raw(`{"candidate":`)
			w.str(e.Candidate)
			w.raw(`,"dataflow":`)
			w.str(e.Dataflow)
			w.raw(`,"a_format":`)
			w.str(e.AFormat)
			w.raw(`,"b_format":`)
			w.str(e.BFormat)
			w.raw(`,"cost":`)
			w.float(e.Cost)
			w.raw(`}`)
		})
	}
	w.tail(pre, len(d.Measured), func(i int) { d.Measured[i].appendTo(w) }, d.Degraded, d.TraceID, d.Trace)
	w.raw(`}`)
}

// scheduleReply starts over with a whole ScheduleResponse body.
func (w *wire) scheduleReply(d *DecisionJSON, pre rendered) {
	w.reset()
	w.raw(`{"decision":`)
	w.decision(d, pre)
	w.raw("}\n")
}

// spgemmReply starts over with a whole SpGEMMResponse body.
func (w *wire) spgemmReply(d *SpGEMMDecisionJSON, pre rendered) {
	w.reset()
	w.raw(`{"decision":`)
	w.pairDecision(d, pre)
	w.raw("}\n")
}

// A BatchScheduleResponse body is appended slot by slot as the items are
// decided: batchOpen, one batchItem per item, batchClose.
func (w *wire) batchOpen() {
	w.reset()
	w.raw(`{"decisions":[`)
}

// batchItem appends slot i: the decision, or the error that failed the
// item alone.
func (w *wire) batchItem(i int, d *DecisionJSON, pre rendered, errMsg string) {
	if i > 0 {
		w.raw(",")
	}
	if errMsg != "" {
		w.raw(`{"error":`)
		w.str(errMsg)
		w.raw(`}`)
		return
	}
	w.raw(`{"decision":`)
	w.decision(d, pre)
	w.raw(`}`)
}

func (w *wire) batchClose(traceID string) {
	w.raw("]")
	w.optStr(`,"trace_id":`, traceID)
	w.raw("}\n")
}

// The forward hop's bodies. Each is what encoding/json writes for its
// struct — a ScheduleRequest or SpGEMMRequest with the policy pinned, a
// lookupRequest, a decisionWire plus "\n" — which FuzzEncodeForward holds,
// so an owner of any build decodes them as it always has.

// appendLookupBody appends a lookup leg's body for key to dst.
func appendLookupBody(dst, key []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, len(key)+len(`{"key":""}`))
	}
	dst = append(dst, `{"key":`...)
	return append(appendJSONString(dst, key), '}')
}

// scheduleBody is a forwarded /v1/schedule's rows leg: data and the policy
// this node resolved, so the owner decides exactly as this node would have.
func (w *wire) scheduleBody(data []byte, policy string) {
	w.reset()
	w.raw("{")
	if len(data) > 0 {
		w.raw(`"data":`)
		w.b = appendJSONString(w.b, data)
		if policy != "" {
			w.raw(",")
		}
	}
	if policy != "" {
		w.raw(`"policy":`)
		w.str(policy)
	}
	w.raw("}")
}

// spgemmBody is a forwarded /v1/schedule/spgemm's rows leg, policy pinned.
func (w *wire) spgemmBody(a, b []byte, policy string) {
	w.reset()
	w.raw(`{"a":`)
	w.b = appendJSONString(w.b, a)
	w.raw(`,"b":`)
	w.b = appendJSONString(w.b, b)
	w.optStr(`,"policy":`, policy)
	w.raw("}")
}

// verdict starts over with an owner's answer to a lookup leg.
func (w *wire) verdict(d *decisionWire) {
	w.reset()
	w.raw(`{"candidate":`)
	w.str(d.Candidate)
	w.raw(`,"source":`)
	w.str(d.Source)
	w.optFloat(`,"confidence":`, d.Confidence)
	w.optFloat(`,"estimated_nnz":`, d.EstimatedNNZ)
	if d.OutputNNZ != 0 {
		w.raw(`,"output_nnz":`)
		w.int(d.OutputNNZ)
	}
	w.optBool(`,"degraded":`, d.Degraded)
	if len(d.Measured) > 0 {
		w.raw(`,"measured":`)
		w.b = append(w.b, d.Measured...)
	}
	w.raw("}\n")
}

// evidence is a cache entry's measurement map in reply form, rendered once:
// the entry's map never changes after it is cached, so neither does the
// array every hit used to sort and build afresh. It is built on first use —
// entries arrive from the scheduler, from gossip and from callers' struct
// literals alike — and is immutable from then on: rows is shared by every
// reply struct that reports the entry and json is spliced into every reply
// that is written, so neither may be modified by whoever reads them.
type evidence[R interface{ appendTo(*wire) }] struct {
	once sync.Once
	rows []R    // ascending time, ties by candidate string; nil when nothing was measured
	json []byte // rows as the reply's "measured" array; nil when rows is
}

// render builds the evidence from a measurement map on first call.
func (ev *evidence[R]) render(build func() []R) ([]R, []byte) {
	ev.once.Do(func() {
		if ev.rows = build(); len(ev.rows) == 0 {
			return
		}
		var w wire
		w.list(len(ev.rows), func(i int) { ev.rows[i].appendTo(&w) })
		ev.json = w.b
	})
	return ev.rows, ev.json
}

// seed gives an entry rebuilt from its wire form the evidence that form
// carried: the "measured" array an owner rendered, and no rows — the entry
// has no measurement map to build them from, and a written reply splices
// the array. An empty array leaves the entry without evidence, as an empty
// map does.
func (ev *evidence[R]) seed(measured []byte) {
	if len(measured) > len("[]") && measured[0] == '[' {
		ev.json = measured
	}
	ev.once.Do(func() {})
}

// traceLines accumulates the elements of a reply's "trace" array — the
// human-readable account of the policy steps taken — encoded as they are
// noted, so the reply splices them instead of formatting a []string. A line
// is composed with the chained appenders and closed with end.
type traceLines struct {
	elems []byte // `"line","line"`: the array without its brackets
	line  []byte // the line being composed
}

func (t *traceLines) reset() { t.elems, t.line = t.elems[:0], t.line[:0] }

func (t *traceLines) text(s string) *traceLines { t.line = append(t.line, s...); return t }

func (t *traceLines) bytes(b []byte) *traceLines { t.line = append(t.line, b...); return t }

func (t *traceLines) int(n int) *traceLines {
	t.line = strconv.AppendInt(t.line, int64(n), 10)
	return t
}

// fixed2 appends f with two decimals, as %.2f prints it.
func (t *traceLines) fixed2(f float64) *traceLines {
	t.line = strconv.AppendFloat(t.line, f, 'f', 2, 64)
	return t
}

// end closes the line being composed and files it as the next element.
func (t *traceLines) end() {
	if len(t.elems) > 0 {
		t.elems = append(t.elems, ',')
	}
	t.elems = appendJSONString(t.elems, t.line)
	t.line = t.line[:0]
}
