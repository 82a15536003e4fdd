package online

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// storeHeader versions the save format. Bump on any wire change to
// Record.
const storeHeader = "layoutd-online-harvest v1"

// Store is a bounded, concurrency-safe ring of harvested records. The
// serve layer appends from the request hot path (one mutex acquisition,
// no allocation beyond the record itself); the controller reads recent
// windows from the background retrain loop. When full, the oldest
// record is evicted — live traffic always wins over history.
type Store struct {
	mu   sync.Mutex
	buf  []Record // ring storage, len == capacity
	head int      // index of the oldest record
	n    int      // live records
	seq  uint64   // last assigned sequence number

	now Clock

	harvestedSMSV atomic.Int64
	harvestedPair atomic.Int64
	evicted       atomic.Int64
	rejected      atomic.Int64
}

// NewStore returns a store bounded at capacity records. A nil clock
// uses wall time.
func NewStore(capacity int, now Clock) *Store {
	if capacity <= 0 {
		capacity = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Store{buf: make([]Record, capacity), now: now}
}

// Add validates r, stamps its sequence number and harvest time, and
// appends it, evicting the oldest record when full. Invalid records are
// counted and rejected rather than poisoning the training window.
func (s *Store) Add(r Record) error {
	r.Seq, r.At = 0, 0 // the store owns both stamps
	if err := r.Validate(); err != nil {
		s.rejected.Add(1)
		return err
	}
	s.mu.Lock()
	s.seq++
	r.Seq = s.seq
	r.At = s.now().UnixNano()
	s.push(r)
	s.mu.Unlock()
	switch r.Kind {
	case KindPair:
		s.harvestedPair.Add(1)
	default:
		s.harvestedSMSV.Add(1)
	}
	return nil
}

// push appends under s.mu.
func (s *Store) push(r Record) {
	if s.n == len(s.buf) {
		s.buf[s.head] = r
		s.head = (s.head + 1) % len(s.buf)
		s.evicted.Add(1)
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = r
	s.n++
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// LastSeq returns the most recently assigned sequence number (0 if
// nothing was ever harvested).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Window returns up to n of the newest records of the given kind, in
// arrival order (oldest of the window first). The returned slice is a
// copy; callers may hold it across store mutations.
func (s *Store) Window(kind Kind, n int) []Record {
	if n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, n)
	// Walk newest→oldest collecting matches, then reverse.
	for i := s.n - 1; i >= 0 && len(out) < n; i-- {
		r := s.buf[(s.head+i)%len(s.buf)]
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Since returns up to max records of the given kind with Seq > seq, in
// arrival order. It is how the controller observes "fresh traffic since
// the swap" when judging a promoted model. max <= 0 means no limit.
func (s *Store) Since(kind Kind, seq uint64, max int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for i := 0; i < s.n; i++ {
		r := s.buf[(s.head+i)%len(s.buf)]
		if r.Kind != kind || r.Seq <= seq {
			continue
		}
		out = append(out, r)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// Counters snapshots the store's lifetime counters: records harvested
// per workload, evictions, and rejected (invalid) adds.
func (s *Store) Counters() (smsv, pair, evicted, rejected int64) {
	return s.harvestedSMSV.Load(), s.harvestedPair.Load(),
		s.evicted.Load(), s.rejected.Load()
}

// Save writes the header line followed by one wire-form record per
// line, oldest first.
func (s *Store) Save(w io.Writer) error {
	s.mu.Lock()
	recs := make([]Record, 0, s.n)
	for i := 0; i < s.n; i++ {
		recs = append(recs, s.buf[(s.head+i)%len(s.buf)])
	}
	s.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, storeHeader); err != nil {
		return err
	}
	for _, r := range recs {
		line, err := EncodeRecord(r)
		if err != nil {
			return fmt.Errorf("online: save record %d: %w", r.Seq, err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load replaces the store's contents with a previously saved stream,
// keeping only the newest capacity records and resuming sequence
// numbering past the highest loaded value. Any invalid record fails the
// whole load: a harvest file is an artifact, not best-effort input.
func (s *Store) Load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("online: empty harvest file")
	}
	if got := sc.Text(); got != storeHeader {
		return fmt.Errorf("online: harvest header %q, want %q", got, storeHeader)
	}
	var recs []Record
	var maxSeq uint64
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := DecodeRecord(line)
		if err != nil {
			return fmt.Errorf("online: load record %d: %w", len(recs)+1, err)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(recs) > len(s.buf) {
		recs = recs[len(recs)-len(s.buf):]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.head, s.n = 0, 0
	for _, rec := range recs {
		s.push(rec)
	}
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
	return nil
}
