package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// sameAsStrconv fails unless number reads s exactly as strconv.ParseFloat
// does: the same bits, or the same error text.
func sameAsStrconv(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	got, err := number([]byte(s))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %v, strconv %v", s, err, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDecimalReadsTheCommonSpellings: the spellings LIBSVM writers use —
// svm-scale's and the serving benchmark's 'g' at 5 significant digits, and
// fixed-point at 0 to 6 decimals — over seeded magnitudes of both signs all
// take decimal's exact path, and agree with strconv bit for bit there.
func TestDecimalReadsTheCommonSpellings(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// [1e-4, 1e4): 'g' at 5 digits spells these without an exponent.
	for e := -4; e <= 3; e++ {
		for k := 0; k < 500; k++ {
			v := (1 + 9*rng.Float64()) * math.Pow(10, float64(e))
			if k%2 == 1 {
				v = -v
			}
			spellings := [][]byte{strconv.AppendFloat(nil, v, 'g', 5, 64)}
			for prec := 0; prec <= 6; prec++ {
				spellings = append(spellings, strconv.AppendFloat(nil, v, 'f', prec, 64))
			}
			for _, s := range spellings {
				if _, ok := decimal(s); !ok {
					t.Fatalf("%q (from %v) missed the exact path", s, v)
				}
				sameAsStrconv(t, string(s))
			}
		}
	}
}

// TestDecimalBoundaries walks the edges of the exact path: the mantissa
// limit 2⁵², digit runs of 19 and 20, 22 and 23 digits after the point, and
// the degenerate spellings strconv accepts or refuses. ok is what decimal
// must report; either way number must equal strconv.
func TestDecimalBoundaries(t *testing.T) {
	cases := []struct {
		s  string
		ok bool
	}{
		{"4503599627370495", true}, // 2⁵² − 1
		{"-4503599627370495", true},
		{"4503599627370496", false},          // 2⁵²: strconv's
		{"450359962737049.5", true},          // 2⁵² − 1 with a point
		{"450359962737049.6", false},         // 2⁵² with a point
		{"0000000000000000001", true},        // 19 digits, leading zeros do not count
		{"00000000000000000001", true},       // 20 digits
		{"1234567890123456789", false},       // 19 significant digits
		{"12345678901234567890", false},      // 20
		{"0.0000000123456789012345", true},   // 22 after the point
		{"0.00000000000000000000001", false}, // 23 after the point
		{"-0.0000000000000000000001", true},  // 22, the smallest exact step
		{"1.0000000000000000000000", false},  // 22 after the point, mantissa 10²²
		{"-0", true},                         // negative zero
		{"-0.000", true},
		{"+0", true},
		{"+.5", true}, // no integer digits
		{"-.25", true},
		{"1.", true}, // no fraction digits
		{"00.0", true},
		{".", false}, // no digits at all
		{"-", false},
		{"+", false},
		{"", false},
		{"-.", false},
		{"1..2", false}, // two points
		{"1.2.3", false},
		{"+-1", false}, // two signs
		{"--1", false},
		{"1e5", false}, // exponents are strconv's
		{"1E-3", false},
		{"inf", false},
		{"-Inf", false},
		{"nan", false},
		{"0x1p-3", false}, // hex
		{"1_000", false},  // underscores
		{"0x_1p0", false},
		{" 1", false}, // white space is the tokenizer's
		{"1 ", false},
		{"\uff11", false},           // a full-width digit
		{"9007199254740993", false}, // 2⁵³ + 1: rounds
		{"0.1", true},
		{"0.30000000000000004", false}, // 17 significant digits
		{"123456.789012", true},
		{strings.Repeat("0", 400) + "1.5", true}, // leading zeros never end the path
		{"1." + strings.Repeat("0", 23), false},  // nor do trailing ones extend it
		{"0." + strings.Repeat("9", 15), true},   // 15 nines: below 2⁵²
		{"0." + strings.Repeat("9", 16), false},  // 16 nines: above
		{"-9999999999999999999999999", false},
		{"4503599627370495.0000000", false}, // trailing zeros grow the mantissa
		{"+4503599627370495.", true},
		{"-00000000000000000000000000000000.5", true},
	}
	for _, c := range cases {
		if _, ok := decimal([]byte(c.s)); ok != c.ok {
			t.Errorf("%q: decimal ok = %v, want %v", c.s, ok, c.ok)
		}
		sameAsStrconv(t, c.s)
	}
	if v, _ := decimal([]byte("-0")); !math.Signbit(v) {
		t.Error(`"-0" lost its sign`)
	}
}

// TestFieldSplitsLikeFields: the tokenizer's field walk, eight bytes at a
// time over printable ASCII, splits random lines exactly where
// strings.TrimSpace and strings.Fields do — Unicode white space, control
// bytes, multi-byte runes and invalid UTF-8 at every offset of a word.
func TestFieldSplitsLikeFields(t *testing.T) {
	pieces := []string{"a", "1:0.5", "0123456789", " ", "\u00a0", "\u0085", "\u2028", "\u3000",
		"\xa0", "\xc2", "\xff", "\x00", "\x01", "\x7f", "é", "\t", "\v", "\f", "\r", "  "}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 20000; k++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		line := sb.String()
		want := strings.Fields(strings.TrimSpace(line))
		tk := tokenizer{rest: []byte(line)}
		var got []string
		for f := tk.field(); len(f) > 0; f = tk.field() {
			got = append(got, string(f))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q (valid UTF-8: %v): fields %q, strings.Fields %q", line, utf8.ValidString(line), got, want)
		}
	}
}
