package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/sparse"
)

// Sample is one parsed LIBSVM line: a label and a sparse feature vector.
type Sample struct {
	Label    float64
	Features sparse.Vector
}

// ParseLIBSVM reads the LIBSVM/svmlight text format:
//
//	<label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based in the file and converted to 0-based. Blank lines and
// lines starting with '#' are skipped. Malformed input — unparsable labels
// or values, index:value pairs without exactly one ':', non-positive,
// duplicate, or descending indices, and non-finite numbers — is rejected
// with an error naming the line and offending token, never silently
// skipped. Returns the samples and the number of features (the maximum
// index seen, matching the paper's definition of N as "maximum feature
// index of all samples").
func ParseLIBSVM(r io.Reader) (samples []Sample, numFeatures int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	var t tokenizer
	for sc.Scan() {
		label, ok, err := t.line(sc.Bytes())
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			continue
		}
		s := Sample{Label: label}
		for {
			idx, val, more, err := t.feature()
			if err != nil {
				return nil, 0, err
			}
			if !more {
				break
			}
			if val != 0 {
				s.Features = s.Features.Append(idx, val)
			}
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("dataset: read: %v", err)
	}
	for i := range samples {
		samples[i].Features.Dim = t.n
	}
	return samples, t.n, nil
}

// maxLineBytes is the longest line ParseLIBSVM's scanner buffers; a longer
// one is a read error on every path.
const maxLineBytes = 1 << 24

// tokenizer is the one LIBSVM line tokenizer: ParseLIBSVM collects samples
// from it and Accumulator collects features and triplets. It works on the
// line's bytes in place — fields are split on Unicode white space exactly as
// strings.TrimSpace and strings.Fields would split the line, and numbers are
// read by number: exactly, in one pass, when spelled [sign] digits [. digits]
// with a short enough mantissa, and by strconv on a no-copy view of their
// token otherwise — so neither consumer allocates per line, and both accept,
// reject and report the same text, bit for bit what strconv would.
// Usage: line for each input line, then feature until it reports no more.
type tokenizer struct {
	lineNo int    // lines seen so far, blank and comment lines included
	n      int    // largest 1-based feature index seen on any line
	rest   []byte // unread remainder of the current line
	prev   int32  // last 0-based index read on this line, -1 before the first
}

// line starts on the next input line and parses its label. ok is false for
// a blank or comment line, which has no label and no features.
func (t *tokenizer) line(b []byte) (label float64, ok bool, err error) {
	t.lineNo++
	t.rest, t.prev = b, -1
	f := t.field()
	if len(f) == 0 || f[0] == '#' {
		return 0, false, nil
	}
	label, err = number(f)
	if err != nil {
		return 0, false, fmt.Errorf("dataset: line %d: bad label %q: %v", t.lineNo, f, err)
	}
	if math.IsNaN(label) || math.IsInf(label, 0) {
		return 0, false, fmt.Errorf("dataset: line %d: non-finite label %q", t.lineNo, f)
	}
	return label, true, nil
}

// feature parses the line's next index:value pair into a 0-based index and
// its value; more is false once the line is exhausted. Explicit zeros are
// returned like any other value (they count towards the feature space), so
// the caller decides what to store.
func (t *tokenizer) feature() (idx int32, val float64, more bool, err error) {
	f := t.field()
	if len(f) == 0 {
		return 0, 0, false, nil
	}
	i, colon := index(f)
	if colon < 0 {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature %q missing ':' (want index:value)", t.lineNo, f)
	}
	val, err = number(f[colon+1:])
	// A second ':' is reported before anything else wrong with the field.
	// No number holds one, so only a field that fails a check below can.
	if (i < 1 || i-1 > math.MaxInt32 || err != nil) && bytes.IndexByte(f[colon+1:], ':') >= 0 {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature %q has more than one ':'", t.lineNo, f)
	}
	if i < 1 {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature %q: index %q is not a positive integer", t.lineNo, f, f[:colon])
	}
	// Indices are stored as int32; without this check a 64-bit index like
	// 2^32+5 would silently wrap to the small index 4 while the feature
	// count ballooned to 2^32+5.
	if i-1 > math.MaxInt32 {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature index %d exceeds the int32 index space", t.lineNo, i)
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature %q: bad value %q", t.lineNo, f, f[colon+1:])
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature %q: non-finite value", t.lineNo, f)
	}
	idx = int32(i - 1)
	switch {
	case idx == t.prev:
		return 0, 0, false, fmt.Errorf("dataset: line %d: duplicate feature index %d", t.lineNo, i)
	case idx < t.prev:
		return 0, 0, false, fmt.Errorf("dataset: line %d: feature index %d after %d: indices must be strictly ascending", t.lineNo, i, t.prev+1)
	}
	t.prev = idx
	if i > t.n {
		t.n = i
	}
	return idx, val, true, nil
}

// index reads the feature index that starts field f and finds the ':' that
// ends it. Plain digits running up to the colon are read here; any other
// spelling — a sign, more than 18 digits, no digits — goes to IndexByte and
// strconv.Atoi. i is 0 when the index is not an integer, and
// colon is -1 when f holds no ':'.
func index(f []byte) (i, colon int) {
	for colon = 0; colon < len(f) && colon < 18 && f[colon]-'0' < 10; colon++ {
		i = i*10 + int(f[colon]-'0')
	}
	if colon > 0 && colon < len(f) && f[colon] == ':' {
		return i, colon
	}
	if colon = bytes.IndexByte(f, ':'); colon < 0 {
		return 0, -1
	}
	if i, err := strconv.Atoi(view(f[:colon])); err == nil {
		return i, colon
	}
	return 0, colon
}

// field returns the line's next white-space-delimited field, empty at the
// end of the line. Printable ASCII — all a field holds in the numbers
// LIBSVM files carry — is never white space and is stepped eight bytes at a
// time. Any other byte is asked about on its own, and a byte inside a
// multi-byte rune never decodes as white space, so the split falls where
// rune-wise strings.Fields puts it, invalid UTF-8 included.
func (t *tokenizer) field() []byte {
	b := t.rest
	i := 0
	for i < len(b) {
		w := spaceWidth(b, i)
		if w == 0 {
			break
		}
		i += w
	}
	start := i
	for i < len(b) {
		if len(b)-i >= 8 {
			// The high bit of each byte below '!' or above DEL. The lowest
			// is exact: a borrow only runs upwards from a marked byte.
			x := binary.LittleEndian.Uint64(b[i:])
			hit := (x - 0x2121212121212121 | x) & 0x8080808080808080
			if hit == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(hit) / 8
		}
		if c := b[i]; (c <= ' ' || c >= utf8.RuneSelf) && spaceWidth(b, i) != 0 {
			break
		}
		i++
	}
	t.rest = b[i:]
	return b[start:i]
}

// asciiSpace marks the ASCII members of unicode.IsSpace, the set TrimSpace
// and Fields split on.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// spaceWidth reports the byte width of the white-space rune at b[i], or 0
// if anything else starts there.
func spaceWidth(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return wideSpaceWidth(b[i:])
}

func wideSpaceWidth(b []byte) int {
	if r, w := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// number reads a label or a feature value: by decimal when it can, and by
// strconv.ParseFloat otherwise, which then decides what is accepted and
// words every error.
func number(b []byte) (float64, error) {
	if v, ok := decimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(view(b), 64)
}

// decimal reads b when it is spelled [sign] digits [. digits], its digits
// form a mantissa m below 2⁵² and at most 22 of them follow the point: then
// m and 10^frac are exact float64s and their quotient, correctly rounded, is
// the value (Clinger's fast path, strconv's atof64exact), so v is bit for
// bit what strconv.ParseFloat returns, −0 included. ok is false for every
// other spelling — exponents, inf and nan, hex, underscores, longer
// mantissas, no digits at all — and for anything malformed.
func decimal(b []byte) (v float64, ok bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, b = b[0] == '-', b[1:]
	}
	var m uint64
	point := -1
	for i, c := range b {
		switch {
		case c-'0' < 10:
			// m is below 2⁵² before the step, so m*10+9 cannot overflow.
			if m = m*10 + uint64(c-'0'); m >= 1<<52 {
				return 0, false
			}
		case c == '.' && point < 0:
			point = i
		default:
			return 0, false
		}
	}
	digits, frac := len(b), 0
	if point >= 0 {
		digits, frac = len(b)-1, len(b)-point-1
	}
	if digits == 0 || frac >= len(pow10) {
		return 0, false
	}
	v = float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	return v, true
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// view returns b as a string without copying it, for handing a token to
// strconv. The string aliases the line buffer, so it must not outlive the
// call it is passed to; strconv clones what its errors quote.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// WriteLIBSVM writes samples in the LIBSVM text format with 1-based
// indices. Integral labels print without a decimal point, matching the
// conventional file layout.
func WriteLIBSVM(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	for _, s := range samples {
		if s.Label == float64(int64(s.Label)) {
			fmt.Fprintf(bw, "%d", int64(s.Label))
		} else {
			fmt.Fprintf(bw, "%g", s.Label)
		}
		for k, idx := range s.Features.Index {
			// Widen before the 1-based shift: idx+1 in int32 wraps negative
			// for the largest legal index.
			fmt.Fprintf(bw, " %d:%g", int64(idx)+1, s.Features.Value[k])
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SamplesToMatrix assembles parsed samples into a matrix builder and a
// label slice, the shape the SVM trainer consumes.
func SamplesToMatrix(samples []Sample, numFeatures int) (*sparse.Builder, []float64) {
	if numFeatures < 1 {
		numFeatures = 1
	}
	b := sparse.NewBuilder(max(len(samples), 1), numFeatures)
	y := make([]float64, len(samples))
	for i, s := range samples {
		b.AddRow(i, s.Features)
		y[i] = s.Label
	}
	return b, y
}
