package sparse

// This file reproduces the paper's Table II analytically: the minimum and
// maximum number of stored elements each format can need for an M×N matrix,
// plus the exact stored-element count for a concrete matrix (available at
// runtime through Matrix.StoredElements).

// StorageBound is one row of Table II for a given M and N.
type StorageBound struct {
	Format   Format
	Min, Max int64
}

// TableII returns the storage space comparison of the paper's Table II for
// an M×N matrix: the minimum (one nonzero) and maximum (fully dense)
// element counts per basic format, in the paper's format order
// DEN, CSR, COO, ELL, DIA.
func TableII(m, n int64) [5]StorageBound {
	return [5]StorageBound{
		// DEN always stores M·N.
		{DEN, m * n, m * n},
		// CSR: data + indices (nnz each) + ptr (M+1); min O(M+2) with one
		// nonzero, max 2MN + M for a dense matrix.
		{CSR, m + 2, 2*m*n + m},
		// COO: three arrays of nnz; min O(1), max 3MN.
		{COO, 3, 3 * m * n},
		// ELL: two M×mdim arrays; min 2M (mdim = 1), max 2MN.
		{ELL, 2 * m, 2 * m * n},
		// DIA: at least one diagonal (min(M,N) padded slots + 1 offset);
		// at most all M+N−1 diagonals: (min(M,N)+1)·(M+N−1).
		{DIA, minI64(m, n) + 1, (minI64(m, n) + 1) * (m + n - 1)},
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
