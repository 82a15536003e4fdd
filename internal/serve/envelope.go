package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"

	"repro/internal/core"
)

// This file is the front half of the four endpoints that accept inline
// LIBSVM rows (/v1/schedule, /v1/schedule/batch, /v1/schedule/spgemm,
// /v1/predict-format): the body is read once into the scratch's pooled
// buffer and its JSON envelope is decoded where it lies, so the rows reach
// the LIBSVM tokenizer as views into that buffer instead of as strings
// encoding/json copied out of it. A ring peer's lookup (/v1/cluster/lookup)
// carries a shape-class key instead, decoded the same way.
//
// The in-place decoder handles the plain case only — one ASCII object whose
// strings use no escape beyond the two-character ones — and never words an
// error of its own: a body it does not fully accept (non-ASCII bytes, \u
// escapes, null, a repeated or unknown key, a type mismatch, a syntax
// error) is handed, untouched, to encoding/json with DisallowUnknownFields
// and the exported wire struct, exactly as every body used to be. What the
// library accepts, rejects and says is therefore unchanged by construction;
// FuzzScheduleEnvelope holds the two routes to the same decoded request.

// envelope is a decoded request body. data, a, b and key view the scratch's
// body buffer, and items is the scratch's slice: they are valid until the scratch
// returns to its pool and must not be retained past the handler — whatever
// outlives it (a forwarded body, a log line) copies what it needs.
type envelope struct {
	profile *FeaturesJSON
	data    []byte // inline LIBSVM rows
	a, b    []byte // SpGEMM operands, inline LIBSVM rows
	policy  string
	items   []envelope // a batch's schedule bodies
	key     []byte     // a lookup's shape-class key
}

// fieldSet is a set of envelope fields; each endpoint admits the ones its
// exported wire struct declares.
type fieldSet uint8

const (
	fieldProfile fieldSet = 1 << iota
	fieldData
	fieldPolicy
	fieldA
	fieldB
	fieldItems
	fieldKey

	scheduleFields      = fieldProfile | fieldData | fieldPolicy
	batchFields         = fieldItems | fieldPolicy
	spgemmFields        = fieldA | fieldB | fieldPolicy
	predictFormatFields = fieldProfile | fieldData
	lookupFields        = fieldKey
)

var fieldNames = [...]struct {
	name []byte
	f    fieldSet
}{
	{[]byte("profile"), fieldProfile}, {[]byte("data"), fieldData}, {[]byte("policy"), fieldPolicy},
	{[]byte("a"), fieldA}, {[]byte("b"), fieldB}, {[]byte("items"), fieldItems},
	{[]byte("key"), fieldKey},
}

// fieldNamed resolves an object key as encoding/json resolves it against
// the wire structs' tags: case-insensitively. Only ASCII keys reach here,
// and on those of equal length EqualFold is plain ASCII folding.
func fieldNamed(key []byte) fieldSet {
	for _, fn := range fieldNames {
		if len(fn.name) == len(key) && bytes.EqualFold(fn.name, key) {
			return fn.f
		}
	}
	return 0
}

// wireRequest is an exported request struct: what a body that is not plain
// decodes into, and what in-process callers hand over. envelope converts
// it, copying the row strings into byte slices the scratch does not own.
type wireRequest interface {
	envelope() envelope
}

func (r ScheduleRequest) envelope() envelope {
	return envelope{profile: r.Profile, data: []byte(r.Data), policy: r.Policy}
}

func (r PredictFormatRequest) envelope() envelope {
	return envelope{profile: r.Profile, data: []byte(r.Data)}
}

func (r SpGEMMRequest) envelope() envelope {
	return envelope{a: []byte(r.A), b: []byte(r.B), policy: r.Policy}
}

func (r lookupRequest) envelope() envelope {
	return envelope{key: []byte(r.Key)}
}

func (r BatchScheduleRequest) envelope() envelope {
	env := envelope{policy: r.Policy, items: make([]envelope, len(r.Items))}
	for i, it := range r.Items {
		env.items[i] = it.envelope()
	}
	return env
}

// decodeEnvelope reads r's body into the scratch and decodes it as the
// envelope T declares: in place when the body is plain, through
// encoding/json into a T otherwise. On failure the error response has been
// written and ok is false.
func decodeEnvelope[T wireRequest](s *Server, sc *batchScratch, w http.ResponseWriter, r *http.Request, allowed fieldSet) (env envelope, ok bool) {
	sc.body.Reset()
	if r.Body != nil {
		if _, err := sc.body.ReadFrom(r.Body); err != nil {
			writeBodyError(w, err)
			return envelope{}, false
		}
	}
	c := cursor{b: sc.body.Bytes(), items: sc.items[:0], maxItems: s.cfg.MaxBatch}
	ok = c.object(&env, allowed)
	sc.items = c.items
	if ok {
		// The whole body scanned clean, so nothing will read it again:
		// unescape the rows where they lie.
		env.items = c.items
		env.unescape()
		for i := range env.items {
			env.items[i].unescape()
		}
		return env, true
	}
	var req T
	if !decodeStrict(w, bytes.NewReader(sc.body.Bytes()), &req) {
		return envelope{}, false
	}
	return req.envelope(), true
}

// writeBodyError answers a body that could not be read or decoded: 413 when
// it ran into the MaxBytesReader cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
}

// cursor walks one request body. Every method reports false the moment the
// body leaves the plain subset; nothing is modified until the walk is over.
type cursor struct {
	b        []byte
	i        int
	items    []envelope // a batch's items, appended as they are scanned
	maxItems int        // longer batches are refused anyway: leave them to the library
}

// consume skips white space and reports whether ch came next, stepping over it.
func (c *cursor) consume(ch byte) bool {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\t' || c.b[c.i] == '\r' || c.b[c.i] == '\n') {
		c.i++
	}
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// plain classifies the bytes a string may hold: 0 ordinary, 1 the closing
// quote, 2 a backslash, 3 anything that ends the plain subset (control
// characters, which the library rejects, and non-ASCII bytes, which it may
// have to replace).
var plain = func() (t [256]uint8) {
	for ch := range t {
		if ch < 0x20 || ch >= 0x80 {
			t[ch] = 3
		}
	}
	t['"'], t['\\'] = 1, 2
	return t
}()

// unescaped maps the character after a backslash to the byte it stands for;
// zero for \u and for what is no escape at all.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// str scans a string value: its contents as they lie in the body, and
// whether they hold escapes.
func (c *cursor) str() (s []byte, escaped, ok bool) {
	if !c.consume('"') {
		return nil, false, false
	}
	start := c.i
	for i := start; i < len(c.b); i++ {
		// Ordinary bytes eight at a time, up to the first one that is not.
		if len(c.b)-i >= 8 {
			m := unordinary(binary.LittleEndian.Uint64(c.b[i:]))
			if m == 0 {
				i += 7 // and the loop's i++
				continue
			}
			i += bits.TrailingZeros64(m) / 8
		}
		switch plain[c.b[i]] {
		case 1:
			c.i = i + 1
			return c.b[start:i], escaped, true
		case 2:
			if i++; i == len(c.b) || unescaped[c.b[i]] == 0 {
				return nil, false, false
			}
			escaped = true
		case 3:
			return nil, false, false
		}
	}
	return nil, false, false
}

// unordinary marks, in the high bit of each of the eight bytes of
// little-endian word x, the bytes plain does not class 0. The lowest mark is
// exact: a borrow only runs upwards from a byte that is itself marked.
func unordinary(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q, s := x^'"'*ones, x^'\\'*ones
	return (x - ' '*ones | x | (q-ones)&^q | (s-ones)&^s) & highs
}

// unescapeInPlace rewrites the two-character escapes str accepted, packing
// s leftwards, and returns the shorter slice.
func unescapeInPlace(s []byte) []byte {
	w := bytes.IndexByte(s, '\\')
	if w < 0 {
		return s
	}
	for r := w; r < len(s); {
		s[w] = unescaped[s[r+1]]
		w, r = w+1, r+2
		n := bytes.IndexByte(s[r:], '\\')
		if n < 0 {
			n = len(s) - r
		}
		w += copy(s[w:], s[r:r+n])
		r += n
	}
	return s[:w]
}

// unescape finishes an envelope the cursor scanned: in a JSON string every
// backslash opens an escape, so the rows need no flag to say they hold any.
func (e *envelope) unescape() {
	e.data, e.a, e.b = unescapeInPlace(e.data), unescapeInPlace(e.a), unescapeInPlace(e.b)
	e.key = unescapeInPlace(e.key)
}

// object scans one JSON object into env, admitting the allowed fields once
// each. Bytes after the closing brace are not looked at, as json.Decoder
// does not look at what follows the first value.
func (c *cursor) object(env *envelope, allowed fieldSet) bool {
	if !c.consume('{') {
		return false
	}
	if c.consume('}') {
		return true
	}
	var seen fieldSet
	for {
		key, escaped, ok := c.str()
		f := fieldNamed(key) & allowed &^ seen
		if !ok || escaped || f == 0 || !c.consume(':') {
			return false
		}
		seen |= f
		switch f {
		case fieldProfile:
			ok = c.profile(env)
		case fieldItems:
			ok = c.itemList()
		default:
			ok = c.text(env, f)
		}
		if !ok {
			return false
		}
		if !c.consume(',') {
			return c.consume('}')
		}
	}
}

// text scans the string value of field f into env, still escaped.
func (c *cursor) text(env *envelope, f fieldSet) bool {
	s, escaped, ok := c.str()
	switch f {
	case fieldData:
		env.data = s
	case fieldA:
		env.a = s
	case fieldB:
		env.b = s
	case fieldKey:
		env.key = s
	case fieldPolicy:
		// A policy is one of four words; one spelled with escapes can take
		// the long way round.
		env.policy, ok = policyName(s), ok && !escaped
	}
	return ok
}

// policyName returns the policy name b spells — the canonical constant for
// a known policy, so the hot path resolves it without allocating, and a
// copy of anything else for the error that will quote it.
func policyName(b []byte) string {
	for p := core.RuleBased; p <= core.PolicyPredict; p++ {
		if name := p.String(); name == string(b) {
			return name
		}
	}
	return string(b)
}

// itemList scans a batch's items array into c.items.
func (c *cursor) itemList() bool {
	if !c.consume('[') {
		return false
	}
	if c.consume(']') {
		return true
	}
	for len(c.items) < c.maxItems {
		c.items = append(c.items, envelope{})
		if !c.object(&c.items[len(c.items)-1], scheduleFields) {
			return false
		}
		if !c.consume(',') {
			return c.consume(']')
		}
	}
	return false
}

// profile decodes a profile object. The nine numbers are the library's to
// parse: the cursor only finds where the object ends and requires that the
// library, given exactly those bytes, consumed all of them without error.
func (c *cursor) profile(env *envelope) bool {
	if !c.consume('{') {
		return false
	}
	start := c.i - 1
	for depth := 1; depth > 0; {
		if c.i == len(c.b) {
			return false
		}
		switch c.b[c.i] {
		case '"':
			if _, _, ok := c.str(); !ok {
				return false
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
		c.i++
	}
	dec := json.NewDecoder(bytes.NewReader(c.b[start:c.i]))
	dec.DisallowUnknownFields()
	env.profile = new(FeaturesJSON)
	return dec.Decode(env.profile) == nil && dec.InputOffset() == int64(c.i-start)
}
