package parallel

import (
	"testing"
	"testing/quick"
)

func TestSplitRangePartitions(t *testing.T) {
	check := func(n, p int) bool {
		if n < 0 {
			n = -n
		}
		if p < 1 {
			p = 1
		}
		n %= 1000
		p = p%20 + 1
		prev := 0
		for w := 0; w < p; w++ {
			lo, hi := SplitRange(n, p, w)
			if lo != prev {
				return false
			}
			if hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRangeBalanced(t *testing.T) {
	n, p := 103, 10
	for w := 0; w < p; w++ {
		lo, hi := SplitRange(n, p, w)
		if size := hi - lo; size != 10 && size != 11 {
			t.Fatalf("worker %d got %d iterations, want 10 or 11", w, size)
		}
	}
}

func TestSplitRangeEdgeCases(t *testing.T) {
	if lo, hi := SplitRange(10, 0, 0); lo != 0 || hi != 0 {
		t.Fatalf("p=0: got [%d,%d)", lo, hi)
	}
	if lo, hi := SplitRange(10, 4, 7); lo != 0 || hi != 0 {
		t.Fatalf("w out of range: got [%d,%d)", lo, hi)
	}
	if lo, hi := SplitRange(0, 4, 0); lo != 0 || hi != 0 {
		t.Fatalf("n=0: got [%d,%d)", lo, hi)
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Guided.String() != "guided" {
		t.Fatal("unexpected schedule names")
	}
	if Schedule(99).String() != "unknown" {
		t.Fatal("unknown schedule should stringify as unknown")
	}
}
