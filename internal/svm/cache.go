package svm

// rowCache is a fixed-capacity LRU cache of kernel-matrix rows, the
// technique LIBSVM inherited from SVM-light ("points shrinking, caching"
// in the paper's related work). SMO revisits working-set indices heavily —
// the same support vectors are selected again and again — so caching the
// K(X_r, ·) rows skips recomputing the two per-iteration SMSVs for warm
// indices entirely.
type rowCache struct {
	capacity int
	rows     map[int][]float64
	// Doubly linked LRU list over cached indices.
	head, tail int
	next, prev map[int]int
}

func newRowCache(capacity int) *rowCache {
	if capacity <= 0 {
		return nil
	}
	return &rowCache{
		capacity: capacity,
		rows:     make(map[int][]float64, capacity),
		head:     -1,
		tail:     -1,
		next:     make(map[int]int, capacity),
		prev:     make(map[int]int, capacity),
	}
}

// get returns the cached row for index r, marking it most-recently used,
// or nil when absent.
func (c *rowCache) get(r int) []float64 {
	if c == nil {
		return nil
	}
	row, ok := c.rows[r]
	if !ok {
		return nil
	}
	c.touch(r)
	return row
}

// put inserts a copy of row for index r, evicting the least-recently-used
// entry if full.
func (c *rowCache) put(r int, row []float64) {
	if c == nil {
		return
	}
	if _, ok := c.rows[r]; ok {
		copy(c.rows[r], row)
		c.touch(r)
		return
	}
	var buf []float64
	if len(c.rows) >= c.capacity {
		evict := c.tail
		c.unlink(evict)
		buf = c.rows[evict]
		delete(c.rows, evict)
	} else {
		buf = make([]float64, len(row))
	}
	copy(buf, row)
	c.rows[r] = buf
	c.pushFront(r)
}

// keep compacts every cached row to its entries at the ascending positions
// pos: the rows that stay active when a shrinking solver shrinks.
func (c *rowCache) keep(pos []int) {
	if c == nil {
		return
	}
	for r, row := range c.rows {
		c.rows[r] = gather(row, row, pos)
	}
}

func (c *rowCache) touch(r int) {
	if c.head == r {
		return
	}
	c.unlink(r)
	c.pushFront(r)
}

func (c *rowCache) pushFront(r int) {
	c.prev[r] = -1
	c.next[r] = c.head
	if c.head >= 0 {
		c.prev[c.head] = r
	}
	c.head = r
	if c.tail < 0 {
		c.tail = r
	}
}

func (c *rowCache) unlink(r int) {
	p, hasP := c.prev[r]
	n, hasN := c.next[r]
	if !hasP && !hasN {
		return
	}
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
	delete(c.prev, r)
	delete(c.next, r)
}
