package kernels

// Reference GEMM path: the demotion target of the hardened runtime's
// fallback chain (internal/guard). When a generated fast-path kernel fails
// its static contract, panics, or trips the numeric guard, the driver
// retires the whole kernel family for that (platform, precision) and
// answers through this plain, allocation-free triple loop instead — the
// degradation model generator-backed libraries use: a proven portable
// kernel behind every generated one.
//
// Accumulation is performed in float64 for both precisions (like the
// internal/mat oracle), and beta == 0 overwrites C without reading it,
// matching the driver's semantics for uninitialised output buffers.

// GEMMRef computes C = alpha*op(A)*op(B) + beta*C through the portable
// reference path. op(A) is m×k and op(B) is k×n; transposed operands are
// supplied as stored (A: K×M, B: N×K, row-major), exactly as the driver
// receives them.
func GEMMRef[T Float](transA, transB bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	at := func(i, p int) T {
		if transA {
			return a[p*lda+i]
		}
		return a[i*lda+p]
	}
	bt := func(p, j int) T {
		if transB {
			return b[j*ldb+p]
		}
		return b[p*ldb+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(at(i, p)) * float64(bt(p, j))
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * T(acc)
			} else {
				c[i*ldc+j] = alpha*T(acc) + beta*c[i*ldc+j]
			}
		}
	}
}

// SGEMMRef is GEMMRef for FP32.
func SGEMMRef(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	GEMMRef(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMMRef is GEMMRef for FP64.
func DGEMMRef(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	GEMMRef(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}
