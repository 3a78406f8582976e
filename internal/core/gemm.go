package core

import (
	"fmt"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/platform"
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

// gemmST is the single-threaded Algorithm 1 loop nest for one C block. tel
// and tid carry the telemetry recorder (nil when disabled) and the trace
// lane of the executing worker; spans are recorded per kc-block — pack
// spans around the explicit A gather, kernel-batch spans around the
// micro-tile sweep (which includes the §5.3 fused B packing) — coarse
// enough to stay off the micro-tile critical path. corruptPack lets the
// CorruptPack injection point poison the packed B panel right after each
// packing micro-kernel fills it (the numeric guard is on and the point is
// armed).
func gemmST[T Float](tel *telemetry.Recorder, tid int32, corruptPack bool, plat *platform.Platform, tile analytic.Tile, blk analytic.Blocking, mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	mr, nr := tile.MR, tile.NR
	mc, kc, nc := blk.MC, blk.KC, blk.NC
	elemBytes := kernels.ElemBytes[T]()
	prec := telemetry.PrecFor(elemBytes)

	bStrategy := mode.bStrategy(n*k*elemBytes, plat.L1.SizeBytes)

	// The pack buffers hold one kc-block's sliver and A block, so a call
	// smaller than the blocking sizes them by its own k and m.
	var bc []T
	if bStrategy != pack.NoPack {
		bc = make([]T, min(kc, k)*nr)
	}
	var aBuf []T
	if mode.TransA() {
		aBuf = make([]T, min(mc, m)*min(kc, k))
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
				kernStart := tel.Now()
				for j := 0; j < ncb; j += nr {
					nrb := min(nr, ncb-j)
					jAbs := jj + j
					cTile := c[ii*ldc+jAbs:]
					if bStrategy == pack.NoPack {
						// Small B (fits L1): no packing at all (Alg 1
						// lines 12–15) — every tile streams B in place.
						bBlk := b[kk*ldb+jAbs:]
						for i := 0; i < mcb; i += mr {
							mrb := min(mr, mcb-i)
							kernels.Micro(mrb, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bBlk, ldb, betaEff, cTile[i*ldc:], ldc)
						}
						continue
					}
					// The first micro-tile packs the sliver (Alg 1 lines
					// 6–8: Fig 5/Alg 3 for NT/TT, Fig 4 for NN/TN with a
					// large B) and computes from it; every later tile reads
					// the L1-resident Bc (lines 9–11). The §5.3.2 lookahead
					// depth t changes when elements are packed, not what
					// is computed; this portable driver always packs the
					// current sliver and the timing model prices the t=1
					// variant.
					mrb := min(mr, mcb)
					if mode.TransB() {
						kernels.MicroNTPack(mrb, nrb, kcb, alpha, aBlk, ldaEff, b[jAbs*ldb+kk:], ldb, betaEff, cTile, ldc, bc)
					} else {
						kernels.MicroPackB(mrb, nrb, kcb, alpha, aBlk, ldaEff, b[kk*ldb+jAbs:], ldb, betaEff, cTile, ldc, bc)
					}
					if corruptPack {
						poison(tel, faults.CorruptPack, bc)
					}
					for i := mrb; i < mcb; i += mr {
						kernels.MicroPacked(min(mr, mcb-i), nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bc, betaEff, cTile[i*ldc:], ldc)
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
