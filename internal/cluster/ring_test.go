package cluster

import (
	"fmt"
	"testing"
)

func members(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("http://10.0.0.%d:8723", i)}
	}
	return out
}

func keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		// Shape-class-like keys: versioned prefix plus quantized digits.
		out[i] = []byte(fmt.Sprintf("v2|hybrid/0|%d,%d,%d", i%97, i/97, i))
	}
	return out
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("b=http://h2:1,a=http://h1:1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != "a" || ms[0].Addr != "http://h1:1" || ms[1].ID != "b" {
		t.Fatalf("parsed %+v", ms)
	}
	for _, bad := range []string{"", "x", "a=", "=http://h:1", "a=h:1", "a=http://h:1,a=http://h:2"} {
		if _, err := ParseMembers(bad); err == nil {
			t.Errorf("ParseMembers(%q) accepted", bad)
		}
	}
}

// TestRingBalance pins the stated balance bound: with 128 virtual nodes per
// member, every member's key share stays within ±35% of the fair 1/N share
// for rings of 2..8 members over 20k distinct shape-class keys.
func TestRingBalance(t *testing.T) {
	ks := keys(20000)
	for n := 2; n <= 8; n++ {
		r := NewRing(DefaultVirtualNodes, members(n)...)
		counts := make(map[string]int)
		for _, k := range ks {
			m, ok := r.Owner(k)
			if !ok {
				t.Fatal("empty ring")
			}
			counts[m.ID]++
		}
		fair := float64(len(ks)) / float64(n)
		for id, c := range counts {
			if dev := float64(c)/fair - 1; dev < -0.35 || dev > 0.35 {
				t.Errorf("%d members: %s owns %d keys, %.0f%% off the fair %.0f", n, id, c, dev*100, fair)
			}
		}
		if len(counts) != n {
			t.Errorf("%d members: only %d own any keys", n, len(counts))
		}
	}
}

// TestRingJoinMovesFewKeys pins consistent hashing's defining property:
// adding one member to an N-node ring moves about K/(N+1) of K keys — never
// more than twice that — and every moved key moves TO the new member, not
// between old members.
func TestRingJoinMovesFewKeys(t *testing.T) {
	ks := keys(20000)
	for n := 2; n <= 6; n++ {
		r := NewRing(DefaultVirtualNodes, members(n)...)
		before := make([]string, len(ks))
		for i, k := range ks {
			m, _ := r.Owner(k)
			before[i] = m.ID
		}
		joined := Member{ID: "joiner", Addr: "http://10.0.1.1:8723"}
		r.Add(joined)
		moved := 0
		for i, k := range ks {
			m, _ := r.Owner(k)
			if m.ID != before[i] {
				moved++
				if m.ID != joined.ID {
					t.Fatalf("key %q moved between old members %s -> %s", k, before[i], m.ID)
				}
			}
		}
		expected := float64(len(ks)) / float64(n+1)
		if f := float64(moved); f > 2*expected {
			t.Errorf("%d members: join moved %d keys, want <= %.0f (2x the expected %.0f)", n, moved, 2*expected, expected)
		}
		if moved == 0 {
			t.Errorf("%d members: join moved no keys", n)
		}
	}
}

// TestRingLeaveMovesOnlyOrphans: the ring without a member reassigns exactly
// the keys it owned; every other key keeps its owner.
func TestRingLeaveMovesOnlyOrphans(t *testing.T) {
	ks := keys(20000)
	ms := members(5)
	r := NewRing(DefaultVirtualNodes, ms...)
	before := make([]string, len(ks))
	for i, k := range ks {
		m, _ := r.Owner(k)
		before[i] = m.ID
	}
	r = NewRing(DefaultVirtualNodes, append(ms[:2:2], ms[3:]...)...)
	for i, k := range ks {
		m, _ := r.Owner(k)
		if before[i] != "n2" && m.ID != before[i] {
			t.Fatalf("key %q owned by surviving %s moved to %s", k, before[i], m.ID)
		}
		if m.ID == "n2" {
			t.Fatalf("key %q still owned by removed member", k)
		}
	}
}

// TestRingDeterministic: two rings built from the same membership agree on
// every owner — the property that lets every node route independently.
func TestRingDeterministic(t *testing.T) {
	ms := members(4)
	a := NewRing(64, ms...)
	// Same members, different insertion order.
	b := NewRing(64, ms[2], ms[0], ms[3], ms[1])
	for _, k := range keys(5000) {
		am, _ := a.Owner(k)
		bm, _ := b.Owner(k)
		if am.ID != bm.ID {
			t.Fatalf("rings disagree on %q: %s vs %s", k, am.ID, bm.ID)
		}
	}
}

func TestRingSuccessor(t *testing.T) {
	r := NewRing(32, members(3)...)
	if _, ok := NewRing(32, members(1)...).Successor("n0"); ok {
		t.Fatal("single-member ring has a successor")
	}
	if _, ok := r.Successor("ghost"); ok {
		t.Fatal("unknown member has a successor")
	}
	s, ok := r.Successor("n1")
	if !ok || s.ID == "n1" {
		t.Fatalf("successor of n1: %v ok=%v", s, ok)
	}
	// Successor is stable across calls and ring copies.
	r2 := NewRing(32, members(3)...)
	s2, _ := r2.Successor("n1")
	if s2.ID != s.ID {
		t.Fatalf("successor unstable: %s vs %s", s.ID, s2.ID)
	}
}

func TestRingEmptyAndReplace(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Owner([]byte("k")); ok {
		t.Fatal("empty ring returned an owner")
	}
	r.Add(Member{ID: "a", Addr: "http://x:1"})
	m, _ := r.Owner([]byte("k"))
	if m.Addr != "http://x:1" {
		t.Fatalf("owner %+v", m)
	}
	// Re-adding an ID replaces the address without moving keys.
	r.Add(Member{ID: "a", Addr: "http://y:1"})
	m, _ = r.Owner([]byte("k"))
	if m.Addr != "http://y:1" {
		t.Fatalf("owner after replace %+v", m)
	}
}
