package core

import (
	"fmt"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/telemetry"
)

// Float constrains the generic driver to the two GEMM precisions: the
// compute kernels' constraint.
type Float = kernels.Float

// SGEMM computes C = α·op(A)·op(B) + β·C in single precision with
// LibShalom's driver. op(A) is m×k and op(B) is k×n; lda/ldb/ldc are the
// row strides of the operands as stored.
func SGEMM(d *Driver, mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return gemm(d, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(d *Driver, mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return gemm(d, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// CheckArgs rejects a GEMM call whose dimensions are negative, whose leading
// dimensions are too small for its mode, or whose slices are too short for
// the elements the mode addresses. The core drivers and the baselines share
// it, so both accept exactly the same calls.
func CheckArgs[T Float](mode Mode, m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("core: negative dimension m=%d n=%d k=%d", m, n, k)
	}
	arows, acols := m, k
	if mode.TransA() {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if mode.TransB() {
		brows, bcols = n, k
	}
	if lda < max(1, acols) || ldb < max(1, bcols) || ldc < max(1, n) {
		return fmt.Errorf("core: leading dimension too small (lda=%d ldb=%d ldc=%d)", lda, ldb, ldc)
	}
	if need := sliceNeed(arows, acols, lda); len(a) < need {
		return fmt.Errorf("core: A has %d elements, needs %d", len(a), need)
	}
	if need := sliceNeed(brows, bcols, ldb); len(b) < need {
		return fmt.Errorf("core: B has %d elements, needs %d", len(b), need)
	}
	if need := sliceNeed(m, n, ldc); len(c) < need {
		return fmt.Errorf("core: C has %d elements, needs %d", len(c), need)
	}
	return nil
}

func sliceNeed(rows, cols, ld int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*ld + cols
}

// gemm is the single-call driver: the plan phase (newCall, then the
// call's width and partition, planned once by split), then the call as one
// problem down the dispatch ladder, split over the pool by that partition
// on the fast route.
func gemm[T Float](d *Driver, mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	if err := CheckArgs(mode, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	tel := d.cfg.Tel
	prec := telemetry.PrecFor(kernels.ElemBytes[T]())
	start := tel.Now()
	cl := newCall[T](d, mode)
	cl.threads, cl.part = split(d.threadsFor(m, n, k), m, n, k, cl.fam.tile)
	d.recordWidth(cl.threads)
	tel.Span(telemetry.PhasePlan, cl.tid, start, uint8(mode), prec, m, n, k)
	e := BatchEntry[T]{M: m, N: n, K: k, Alpha: alpha, A: a, LDA: lda, B: b, LDB: ldb, Beta: beta, C: c, LDC: ldc}
	err := cl.run(&e, -1, -1, start)
	tel.Span(telemetry.PhaseCall, cl.tid, start, uint8(mode), prec, m, n, k)
	return err
}

// gemmST is the single-threaded Algorithm 1 loop nest for one C block on
// driver d, whose recorder (nil when disabled) and buffer pools it uses;
// tid is the trace lane of the executing worker.
//
// When §4's decision packs B (every NT and TT call, and NN and TN when B
// exceeds the L1), each (ii, kk) block first fills one kc×nc panel from
// d's pool with its B in k-contiguous columns, bp[j*kcb+k] = B(kk+k, jj+j):
// NN and TN by transposing a few whole B rows at a time, NT and TT by
// copying rows of the stored-transposed B. Every micro-tile of the block
// then runs MicroPacked on its sliver of the panel. The ISA programs fold
// this packing into the FMA stream instead (§5.3), and the timing model
// prices that; on the host, one pass that reads each B row once and in
// order beats packing each nr-wide sliver at B's row stride. A B that fits
// the L1 stays in place (Alg 1 lines 12–15), and TN/TT gather each A block
// into a row-major buffer from the same pool (§4.3).
//
// Spans are recorded per kc-block: a pack span around each A gather and
// each panel fill, and a kernel-batch span around the micro-tile sweep,
// coarse enough to stay off the micro-tile critical path. corruptPack lets
// the CorruptPack injection point poison each panel right after it is
// filled (the numeric guard is on and the point is armed).
func gemmST[T Float](d *Driver, tid int32, corruptPack bool, tile analytic.Tile, blk analytic.Blocking, mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	tel := d.cfg.Tel
	mr, nr := tile.MR, tile.NR
	mc, kc, nc := blk.MC, blk.KC, blk.NC
	elemBytes := kernels.ElemBytes[T]()
	prec := telemetry.PrecFor(elemBytes)

	packB := mode.bStrategy(n*k*elemBytes, d.cfg.Plat.L1.SizeBytes) != pack.NoPack

	// The buffers hold one block's panel and A block, so a call smaller
	// than the blocking uses only what its own k, n and m need.
	var bp, aBuf []T
	if packB {
		buf := getBuf[T](d, min(kc, k)*min(nc, n))
		defer putBuf(d, buf)
		bp = *buf
	}
	if mode.TransA() {
		buf := getBuf[T](d, min(mc, m)*min(kc, k))
		defer putBuf(d, buf)
		aBuf = *buf
	}

	for jj := 0; jj < n; jj += nc {
		ncb := min(nc, n-jj)
		for ii := 0; ii < m; ii += mc {
			mcb := min(mc, m-ii)
			// Loop interchange (§3.3): kk runs inside ii so each A block's
			// rows are walked contiguously across the whole K extent.
			for kk := 0; kk < k; kk += kc {
				kcb := min(kc, k-kk)
				betaEff := alphaBeta(kk == 0, beta)
				// Effective A block accessor for this (ii, kk).
				var aBlk []T
				var ldaEff int
				if mode.TransA() {
					// §4.3: TN/TT gather the transposed A block into a
					// row-major buffer (the NT-style packing of A).
					packStart := tel.Now()
					pack.PackATransposed(aBuf, a, lda, ii, kk, mcb, kcb)
					tel.Span(telemetry.PhasePack, tid, packStart, uint8(mode), prec, mcb, 0, kcb)
					aBlk, ldaEff = aBuf, kcb
				} else {
					aBlk, ldaEff = a[ii*lda+kk:], lda
				}
				if packB {
					packStart := tel.Now()
					if mode.TransB() {
						kernels.PackPanelNT(kcb, ncb, b[jj*ldb+kk:], ldb, bp)
					} else {
						kernels.PackPanel(kcb, ncb, b[kk*ldb+jj:], ldb, bp)
					}
					if corruptPack {
						poison(tel, faults.CorruptPack, bp)
					}
					tel.Span(telemetry.PhasePack, tid, packStart, uint8(mode), prec, 0, ncb, kcb)
				}
				kernStart := tel.Now()
				for j := 0; j < ncb; j += nr {
					nrb := min(nr, ncb-j)
					cTile := c[ii*ldc+jj+j:]
					for i := 0; i < mcb; i += mr {
						mrb := min(mr, mcb-i)
						if packB {
							kernels.MicroPacked(mrb, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bp[j*kcb:], betaEff, cTile[i*ldc:], ldc)
						} else {
							kernels.Micro(mrb, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, b[kk*ldb+jj+j:], ldb, betaEff, cTile[i*ldc:], ldc)
						}
					}
				}
				tel.Span(telemetry.PhaseKernelBatch, tid, kernStart, uint8(mode), prec, mcb, ncb, kcb)
			}
		}
	}
}

func alphaBeta[T Float](first bool, beta T) T {
	if first {
		return beta
	}
	return 1
}
