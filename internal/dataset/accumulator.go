package dataset

import (
	"bufio"
	"bytes"
	"fmt"

	"repro/internal/sparse"
)

// Accumulator is the serving path's one-pass LIBSVM reader: it tokenizes
// inline rows once, appends their nonzeros to a caller-owned builder and
// accumulates the nine Table IV parameters on the way — bit for bit what
// Extract reports for the CSR those rows build — so a request answered from
// the decision cache never materializes a matrix. Its workspaces grow with
// the rows and bytes the text actually holds, never with an index the text
// merely declares, and are reused across calls. An Accumulator is not safe
// for concurrent use; pool instances.
type Accumulator struct {
	dims  []int    // nonzeros per row, in row order
	diag  []uint32 // open-addressing set of the occupied diagonals j−i
	shift uint     // 32 − log2(len(diag)): hash bits → slot
}

// ParseLIBSVM reads data as ParseLIBSVM reads a file — same accepted
// spellings, same errors — leaving b holding the rows' nonzero triplets
// under their final shape, and returns the matrix's features together with
// n, the largest feature index seen (f.N is never below 1). Text with no
// sample rows reports f.M == 0 and leaves b empty.
func (a *Accumulator) ParseLIBSVM(data []byte, b *sparse.Builder) (f Features, n int, err error) {
	b.Reset(1, 1)
	a.dims = a.dims[:0]
	a.resetDiag(len(data))
	var t tokenizer
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLineBytes {
			return Features{}, 0, fmt.Errorf("dataset: read: %v", bufio.ErrTooLong)
		}
		_, ok, err := t.line(line)
		if err != nil {
			return Features{}, 0, err
		}
		if !ok {
			continue
		}
		row, dim := int32(len(a.dims)), 0
		for {
			idx, val, more, err := t.feature()
			if err != nil {
				return Features{}, 0, err
			}
			if !more {
				break
			}
			if val != 0 {
				b.Append(row, idx, val)
				dim++
				if a.addDiag(idx - row) {
					f.Ndig++
				}
			}
		}
		a.dims = append(a.dims, dim)
		f.NNZ += int64(dim)
		if dim > f.Mdim {
			f.Mdim = dim
		}
	}
	rows := len(a.dims)
	if rows == 0 {
		return Features{}, 0, nil
	}
	cols := max(t.n, 1)
	b.Shape(rows, cols)
	f.M, f.N = rows, cols
	return finish(f, a.dims), t.n, nil
}

// resetDiag empties the diagonal set and sizes it for a text of n bytes: a
// stored entry takes at least four of them ("1:1" and a separator), so n/2
// slots keep the load at or under one half without ever growing mid-parse.
func (a *Accumulator) resetDiag(n int) {
	size, bits := 16, uint(4)
	for size < n/2 {
		size, bits = size<<1, bits+1
	}
	if cap(a.diag) < size {
		a.diag = make([]uint32, size)
	} else {
		a.diag = a.diag[:size]
		clear(a.diag)
	}
	a.shift = 32 - bits
}

// addDiag records diagonal off = j−i and reports whether it was new. A slot
// holds the offset with its sign bit flipped, which is nonzero for every
// offset two non-negative int32 coordinates can produce, so zero means empty.
func (a *Accumulator) addDiag(off int32) bool {
	key := uint32(off) ^ 1<<31
	mask := uint32(len(a.diag) - 1)
	for h := key * 0x9E3779B1 >> a.shift; ; h = (h + 1) & mask {
		switch a.diag[h] {
		case key:
			return false
		case 0:
			a.diag[h] = key
			return true
		}
	}
}
