package core

import (
	"fmt"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// Config carries the per-call execution parameters of the driver.
type Config struct {
	// Plat selects the platform model whose cache capacities drive the
	// packing decision (§4.2) and blocking parameters. Defaults to
	// Kunpeng 920 when nil.
	Plat *platform.Platform
	// Threads is the requested parallel width, a cap: a call or batch forks
	// only as wide as the work rule (forkWidth) lets its work pay for, and
	// values < 2 run single-threaded.
	Threads int
	// Pool optionally supplies a shared worker pool. When nil and the plan
	// forks, a transient pool is created for the call.
	Pool *parallel.Pool
	// NumericGuard enables the runtime numeric guard: operand and result
	// blocks are scanned for NaN/Inf, and a fast path that panics or
	// manufactures non-finite values from finite inputs is demoted to the
	// portable reference path (the call still succeeds, degraded).
	NumericGuard bool
	// CheckAlias makes batch calls validate up front that no two entries
	// write overlapping C storage, returning ErrAliasedBatch instead of
	// racing.
	CheckAlias bool
	// Deadline, when positive, bounds the call: parallel runs arm the
	// stuck-worker watchdog with it as the per-block budget (a block
	// exceeding it converts the call into a *guard.StuckWorkerError instead
	// of a hang), and batch calls additionally wrap their context with it so
	// unstarted entries are abandoned once it expires.
	Deadline time.Duration
	// RetryTransient retries a transiently failed block once on the
	// reference path instead of surfacing the failure: a fast path that
	// panics trips the breaker and the block is recomputed transparently —
	// the call succeeds, degraded. NumericGuard implies the same recovery
	// plus the NaN/Inf scan.
	RetryTransient bool
	// Tel is the optional telemetry recorder the call reports into: per-
	// shape metrics, phase trace spans, pool gauges. nil disables the layer;
	// the disabled hot path performs zero atomic writes and zero
	// allocations (proven by shalom-vet, see internal/telemetry).
	Tel *telemetry.Recorder
}

// pool returns the pool a fork runs on and its release: Config.Pool, or a
// transient pool threads wide, observed by Tel but never by a typed nil.
func (c Config) pool(threads int) (*parallel.Pool, func()) {
	if c.Pool != nil {
		return c.Pool, func() {}
	}
	var obs parallel.Observer
	if c.Tel != nil {
		obs = c.Tel
	}
	p := parallel.NewPoolObserved(threads, obs)
	return p, p.Close
}

func (c Config) platform() *platform.Platform {
	if c.Plat != nil {
		return c.Plat
	}
	return platform.KP920()
}

// Float constrains the generic driver to the two GEMM precisions: the
// compute kernels' constraint.
type Float = kernels.Float

// SGEMM computes C = α·op(A)·op(B) + β·C in single precision with
// LibShalom's driver. op(A) is m×k and op(B) is k×n; lda/ldb/ldc are the
// row strides of the operands as stored.
func SGEMM(cfg Config, mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return gemm(cfg, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(cfg Config, mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return gemm(cfg, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
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

// gemm is the single-call driver: the plan phase (newCall, then split),
// then the call as one problem down the dispatch ladder, split over the
// pool by the planned partition on the fast route.
func gemm[T Float](cfg Config, mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	if err := CheckArgs(mode, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	tel := cfg.Tel
	prec := telemetry.PrecFor(kernels.ElemBytes[T]())
	start := tel.Now()
	cl := newCall[T](cfg, mode)
	cl.threads, _ = split(cfg.Threads, m, n, k, cl.fam.tile)
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
