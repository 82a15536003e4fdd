package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// FuzzParseLIBSVM checks the parser never panics, that anything it accepts
// survives a write/parse round trip, and — on every input — that both
// readers over the byte-level tokenizer (ParseLIBSVM and the one-pass
// Accumulator) agree with the legacy route kept in oracle_test.go: the same
// error string, or the same samples, shape, triplets and feature bits.
func FuzzParseLIBSVM(f *testing.F) {
	f.Add("+1 1:0.5 3:1.25\n-1 2:2\n")
	f.Add("")
	f.Add("# comment\n\n+1 1:1\n")
	f.Add("1 1:1e308 2:-1e308\n")
	f.Add("-1 999999:3\n")
	f.Add("+1 1:nan\n")
	f.Add("2.5 1:0\n")
	// Error-path corpus: each of these must be rejected (or at least never
	// crash), and their mutations probe the parser's edges.
	f.Add("x 1:1\n")              // bad label
	f.Add("+1 1\n")               // missing colon
	f.Add("+1 1:2:3\n")           // double colon
	f.Add("+1 0:1\n")             // index below 1
	f.Add("+1 -3:1\n")            // negative index
	f.Add("+1 2:1 2:2\n")         // duplicate index
	f.Add("+1 5:1 3:2\n")         // descending indices
	f.Add("+1 1:inf\n")           // non-finite value
	f.Add("inf 1:1\n")            // non-finite label
	f.Add("+1 4294967301:1\n")    // index past int32: must not wrap to 4
	f.Add("+1 2147483648:1\n")    // first index past int32
	f.Add("+1 2147483647:1\n")    // largest legal index
	f.Add("+1 1:0x1p-3\n")        // hex float syntax
	f.Add("+1  1:1\t2:2 \n")      // mixed whitespace
	f.Add("#only a comment\n\n#") // nothing but comments

	// Tokenizer corpus: where a byte-level split could part ways with
	// TrimSpace + Fields. Signed and zero-padded indices; CRLF; Unicode
	// white space between fields; bytes that only look like NBSP (no split);
	// a comment found after trimming a wide space, then a label-only row;
	// explicit and underflowed zeros around empty rows; every ASCII space,
	// a bare \r included.
	f.Add("+1 +3:1 007:2\n")
	f.Add("+1 1:1\r\n-1 2:2\r\n")
	f.Add("1\u00a01:1\u20282:2\u0085\n")
	f.Add("1 1:1\xa02:2 \xff\n")
	f.Add("\u3000# comment\n1\n")
	f.Add("1 2:0 4:-0 6:1\n\n2\n3 1:1e-400\n")
	f.Add("1 1:1\v2:2\f3:3\r4:4\n")

	// Decimal corpus: the edges of the exact path that number tries before
	// strconv — the mantissa at 2⁵² − 1 and 2⁵², runs of 19 and 20 digits, 22
	// and 23 digits after the point, a signed zero, a bare point or sign,
	// missing integer or fraction digits, zero-padded zero — and the same
	// spellings as labels and in malformed fields.
	f.Add("4503599627370495 1:4503599627370496 2:450359962737049.5 3:450359962737049.6\n")
	f.Add("1 1:0000000000000000001 2:00000000000000000001 3:1234567890123456789 4:12345678901234567890\n")
	f.Add("1 1:0.0000000123456789012345 2:0.00000000000000000000001 3:-0.0000000000000000000001\n")
	f.Add("-0 1:-0 2:+.5 3:1. 4:00.0 5:-.25 6:0.1\n")
	f.Add("+1 1:.\n")
	f.Add("- 1:1\n")
	f.Add("+.5 1:-\n")
	f.Add("1 1:1..2\n")
	f.Add("1 1:1.2:3\n")
	f.Add("1 0:1.5:2\n")
	f.Add("1 99999999999999999999:1\n")
	f.Add("1 000000000000000000001:2\n")
	var acc Accumulator
	pooled := sparse.NewBuilder(1, 1)
	f.Fuzz(func(t *testing.T, in string) {
		diffLIBSVM(t, &acc, pooled, in)
		samples, n, err := ParseLIBSVM(strings.NewReader(in))
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("accepted input with negative numFeatures %d", n)
		}
		for _, s := range samples {
			if s.Features.Dim != n && n > 0 {
				t.Fatalf("sample dim %d, numFeatures %d", s.Features.Dim, n)
			}
			for _, idx := range s.Features.Index {
				// A stored index outside [0, numFeatures) means a 64-bit
				// file index wrapped during the int32 conversion.
				if idx < 0 || int(idx) >= n {
					t.Fatalf("stored index %d outside feature space [0,%d)", idx, n)
				}
			}
			if err := s.Features.Validate(); err != nil {
				// NaN/Inf inputs are accepted by the parser as floats but
				// flagged by Validate; that combination is fine, anything
				// structural is not.
				if !strings.Contains(err.Error(), "non-finite") {
					t.Fatalf("accepted structurally invalid sample: %v", err)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteLIBSVM(&buf, samples); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		again, n2, err := ParseLIBSVM(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if len(again) != len(samples) {
			t.Fatalf("round trip lost samples: %d -> %d", len(samples), len(again))
		}
		_ = n2
	})
}

// FuzzTripletFeatures fills a builder in whatever order the bytes give —
// shuffled, duplicated, summing to zero — and holds the triplet pass to
// Extract on the CSR it builds, as FuzzBuilderCanonical (package sparse,
// which cannot import this one) holds the builds themselves to a reference.
func FuzzTripletFeatures(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 5, 0, 1, 7, 1, 0, 9}, uint8(2), uint8(2))
	f.Add([]byte{1, 1, 3, 0, 0, 4, 1, 1, 0xfd, 0, 1, 0}, uint8(2), uint8(2)) // shuffled, sums to zero, explicit zero
	f.Add([]byte{2, 3, 1, 2, 3, 1, 2, 3, 1, 0, 0, 0}, uint8(3), uint8(4))    // triplicate
	f.Fuzz(func(t *testing.T, data []byte, rows8, cols8 uint8) {
		rows, cols := int(rows8%12)+1, int(cols8%12)+1
		b := sparse.NewBuilder(rows, cols)
		for ; len(data) >= 3; data = data[3:] {
			b.Add(int(data[0])%rows, int(data[1])%cols, float64(int8(data[2])))
		}
		tripletsMatchExtract(t, "fuzz", b)
	})
}
