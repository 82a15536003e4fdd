package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// DefaultVirtualNodes is the per-member virtual-node count. 128 points per
// member keeps the worst member within ~±25% of the mean share for small
// rings (see TestRingBalance) at a few KB of table per member.
const DefaultVirtualNodes = 128

// fnv64a is FNV-1a over a key, finished with a murmur-style
// 64-bit avalanche. The same stable hash places vnodes and looks up keys,
// so ownership never depends on process identity, map iteration order, or
// hash seeds that differ across restarts. The finalizer matters: bare
// FNV-1a clusters badly on the near-sequential quantized shape-class keys
// (and on "id#0".."id#127" vnode labels), skewing ring balance far past the
// bound TestRingBalance pins.
func fnv64a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnode is one point on the hash circle.
type vnode struct {
	hash   uint64
	member int // index into ring.members
}

// Ring is a consistent-hash ring over cluster members. Lookups binary-search
// a sorted virtual-node table under a read lock; membership changes rebuild
// the table. Keys are the serving layer's quantized shape-class cache keys,
// so one shape class always lands on one owner (and its successor for
// replication) no matter which node the request first hit.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	members []Member
	table   []vnode
}

// NewRing builds a ring with the given virtual-node count per member
// (<= 0 means DefaultVirtualNodes).
func NewRing(vnodes int, members ...Member) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// Add inserts a member; adding an ID that is already present replaces its
// address without moving any keys.
func (r *Ring) Add(m Member) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.members {
		if r.members[i].ID == m.ID {
			r.members[i].Addr = m.Addr
			return
		}
	}
	r.members = append(r.members, m)
	r.rebuildLocked()
}

// rebuildLocked regenerates the sorted vnode table. Caller holds r.mu.
// Vnode hashes depend only on (member ID, replica index), so a ring with one
// member more or less has every other member's points in place — the
// minimal-key-movement property TestRingJoinMovesFewKeys pins.
func (r *Ring) rebuildLocked() {
	r.table = r.table[:0]
	buf := make([]byte, 0, 64)
	for mi, m := range r.members {
		for v := 0; v < r.vnodes; v++ {
			buf = buf[:0]
			buf = append(buf, m.ID...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			r.table = append(r.table, vnode{hash: fnv64a(buf), member: mi})
		}
	}
	sort.Slice(r.table, func(i, j int) bool { return r.table[i].hash < r.table[j].hash })
}

// Owner returns the member owning key: the first vnode clockwise from the
// key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key []byte) (Member, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.table) == 0 {
		return Member{}, false
	}
	return r.members[r.table[r.searchLocked(fnv64a(key))].member], true
}

// searchLocked finds the index of the first vnode at or clockwise of h,
// wrapping at the top of the circle. Caller holds r.mu (read) and has
// checked the table is non-empty.
func (r *Ring) searchLocked(h uint64) int {
	i := sort.Search(len(r.table), func(i int) bool { return r.table[i].hash >= h })
	if i == len(r.table) {
		return 0
	}
	return i
}

// Successor returns the first member clockwise of id's position that is not
// id itself — the replication target for entries id owns. ok is false when
// id is absent or alone on the ring.
func (r *Ring) Successor(id string) (Member, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.members) < 2 {
		return Member{}, false
	}
	self := -1
	for i := range r.members {
		if r.members[i].ID == id {
			self = i
			break
		}
	}
	if self < 0 {
		return Member{}, false
	}
	// Walk clockwise from the member's first vnode until a foreign vnode
	// appears. Using the vnode circle (not the member list) keeps the
	// successor relation consistent with key ownership.
	buf := []byte(id + "#0")
	start := r.searchLocked(fnv64a(buf))
	for i := 1; i <= len(r.table); i++ {
		v := r.table[(start+i)%len(r.table)]
		if v.member != self {
			return r.members[v.member], true
		}
	}
	return Member{}, false
}

// Members snapshots the current membership, sorted by ID.
func (r *Ring) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]Member(nil), r.members...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String renders the ring for logs: member count and vnode count.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring(%d members, %d vnodes each)", len(r.members), r.vnodes)
}
