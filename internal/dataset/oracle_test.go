package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// legacyParseLIBSVM is ParseLIBSVM as it stood before the byte-level
// tokenizer replaced its body — bufio.Scanner, strings.TrimSpace,
// strings.Fields, strconv on copied substrings — kept verbatim and only
// here, so the differential tests compare the tokenizer against an oracle
// that shares none of its code.
func legacyParseLIBSVM(r io.Reader) (samples []Sample, numFeatures int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("dataset: line %d: bad label %q: %v", lineNo, fields[0], err)
		}
		if math.IsNaN(label) || math.IsInf(label, 0) {
			return nil, 0, fmt.Errorf("dataset: line %d: non-finite label %q", lineNo, fields[0])
		}
		s := Sample{Label: label}
		prev := int32(-1)
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, 0, fmt.Errorf("dataset: line %d: feature %q missing ':' (want index:value)", lineNo, f)
			}
			if strings.IndexByte(f[colon+1:], ':') >= 0 {
				return nil, 0, fmt.Errorf("dataset: line %d: feature %q has more than one ':'", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return nil, 0, fmt.Errorf("dataset: line %d: feature %q: index %q is not a positive integer", lineNo, f, f[:colon])
			}
			// Indices are stored as int32; without this check a 64-bit idx
			// like 2^32+5 would silently wrap to the small index 4 while
			// numFeatures ballooned to 2^32+5.
			if idx-1 > math.MaxInt32 {
				return nil, 0, fmt.Errorf("dataset: line %d: feature index %d exceeds the int32 index space", lineNo, idx)
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("dataset: line %d: feature %q: bad value %q", lineNo, f, f[colon+1:])
			}
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return nil, 0, fmt.Errorf("dataset: line %d: feature %q: non-finite value", lineNo, f)
			}
			zeroIdx := int32(idx - 1)
			switch {
			case zeroIdx == prev:
				return nil, 0, fmt.Errorf("dataset: line %d: duplicate feature index %d", lineNo, idx)
			case zeroIdx < prev:
				return nil, 0, fmt.Errorf("dataset: line %d: feature index %d after %d: indices must be strictly ascending", lineNo, idx, prev+1)
			}
			prev = zeroIdx
			if val != 0 {
				s.Features = s.Features.Append(zeroIdx, val)
			}
			if idx > numFeatures {
				numFeatures = idx
			}
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("dataset: read: %v", err)
	}
	for i := range samples {
		samples[i].Features.Dim = numFeatures
	}
	return samples, numFeatures, nil
}

// legacyFeatures is the rest of the route a serve request used to take once
// its rows were parsed: assemble a builder, materialize CSR, extract.
func legacyFeatures(samples []Sample, n int) (*sparse.Builder, Features) {
	b, _ := SamplesToMatrix(samples, n)
	return b, Extract(b.MustBuild(sparse.CSR))
}
