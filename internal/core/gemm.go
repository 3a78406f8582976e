package core

import (
	"errors"
	"fmt"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
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
	// Threads is the parallel width; values < 2 run single-threaded.
	// The paper parallelizes only irregular-shaped GEMM (§6); callers are
	// expected to pass 1 for small inputs, and the public API does so.
	Threads int
	// Pool optionally supplies a shared worker pool. When nil and
	// Threads > 1 a transient pool is created for the call.
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

// poolObserver adapts cfg.Tel into the pool's Observer hook without handing
// the pool a typed-nil interface when telemetry is off.
func (c Config) poolObserver() parallel.Observer {
	if c.Tel == nil {
		return nil
	}
	return c.Tel
}

func (c Config) platform() *platform.Platform {
	if c.Plat != nil {
		return c.Plat
	}
	return platform.KP920()
}

// Float constrains the generic driver to the two GEMM precisions.
type Float interface {
	~float32 | ~float64
}

// kernelSet wires the generic driver to the precision-specific micro-kernels.
type kernelSet[T Float] struct {
	elemBytes int
	micro     func(mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
	packB     func(mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int)
	nt        func(mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int)
	ntPack    func(mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int)
	scale     func(mr, nr int, beta T, c []T, ldc int)
	packAT    func(dst []T, at []T, ldat, i0, k0, mc, kc int)
	// ref is the portable reference GEMM the guard demotes to when the
	// fast-path kernel family misbehaves (internal/guard fallback chain).
	ref func(transA, transB bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
}

func f32Kernels() kernelSet[float32] {
	return kernelSet[float32]{
		elemBytes: 4,
		micro:     kernels.SGEMMMicro,
		packB:     kernels.SGEMMMicroPackB,
		nt:        kernels.SGEMMMicroNT,
		ntPack:    kernels.SGEMMMicroNTPack,
		scale:     kernels.SScaleRows,
		packAT:    pack.PackATransposedF32,
		ref:       kernels.SGEMMRef,
	}
}

func f64Kernels() kernelSet[float64] {
	return kernelSet[float64]{
		elemBytes: 8,
		micro:     kernels.DGEMMMicro,
		packB:     kernels.DGEMMMicroPackB,
		nt:        kernels.DGEMMMicroNT,
		ntPack:    kernels.DGEMMMicroNTPack,
		scale:     kernels.DScaleRows,
		packAT:    pack.PackATransposedF64,
		ref:       kernels.DGEMMRef,
	}
}

// SGEMM computes C = α·op(A)·op(B) + β·C in single precision with
// LibShalom's driver. op(A) is m×k and op(B) is k×n; lda/ldb/ldc are the
// row strides of the operands as stored.
func SGEMM(cfg Config, mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return gemm[float32](cfg, f32Kernels(), mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(cfg Config, mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return gemm[float64](cfg, f64Kernels(), mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func checkArgs[T Float](mode Mode, m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int) error {
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

func gemm[T Float](cfg Config, ks kernelSet[T], mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	if err := checkArgs(mode, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	tel := cfg.Tel
	prec := telemetry.PrecFor(ks.elemBytes)
	class := uint8(telemetry.ClassifyShape(m, n, k))
	flops := 2 * float64(m) * float64(n) * float64(k)
	callStart := tel.Now()
	callTid := tel.CallTid()
	if d := faults.SlowClassFire(class); d > 0 {
		// Chaos: a kernel that regressed on this workload regime. Timing
		// only — the delay lands inside the call's measured duration so the
		// attribution engine sees the class underperform its model.
		tel.FaultInjected(faults.SlowShapeClass)
		time.Sleep(d)
	}
	finish := func(kernel, outcome uint8, err error) error {
		tel.CallDone(prec, uint8(mode), class, kernel, outcome, callStart, flops)
		tel.Span(telemetry.PhaseCall, callTid, callStart, uint8(mode), prec, m, n, k)
		return err
	}
	if m == 0 || n == 0 {
		return finish(telemetry.KernelFast, telemetry.OutcomeOK, nil)
	}
	if alpha == 0 || k == 0 {
		scaleAll(ks, m, n, beta, c, ldc)
		return finish(telemetry.KernelFast, telemetry.OutcomeOK, nil)
	}
	plat := cfg.platform()
	// The plan phase: contract verification (memoised per platform — the
	// registration-time leg of the fallback chain, tripping the breaker of
	// any kernel family that fails), the breaker routing decision, the tile
	// solve and the blocking derivation.
	planStart := tel.Now()
	guard.VerifyContracts(plat)
	route, beganProbe := heal.RouteFor(plat.Name, guard.PathFor(ks.elemBytes))
	if beganProbe {
		tel.HealEvent(telemetry.HealBreakerProbe)
		tel.BreakerTransition(telemetry.BreakerOpen, telemetry.BreakerProbing)
	}
	if route == heal.RouteRef {
		tel.Span(telemetry.PhasePlan, callTid, planStart, uint8(mode), prec, m, n, k)
		ks.ref(mode.TransA(), mode.TransB(), m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return finish(telemetry.KernelRef, telemetry.OutcomeOK, nil)
	}
	tile := analytic.SolveForElem(ks.elemBytes)
	blk := analytic.BlockingFor(plat, ks.elemBytes)
	famPath := guard.PathFor(ks.elemBytes)
	tel.Span(telemetry.PhasePlan, callTid, planStart, uint8(mode), prec, m, n, k)

	if route == heal.RouteCanary {
		// Probing breaker: fast path shadowed by the reference, compared.
		// Canaries run single-threaded — the shadow doubles the work anyway,
		// and the probing window is short.
		if runCanary(cfg, ks, plat, tile, blk, mode, famPath, false, callTid, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) {
			return finish(telemetry.KernelRef, telemetry.OutcomeDegraded, nil)
		}
		return finish(telemetry.KernelFast, telemetry.OutcomeOK, nil)
	}

	// Tuned dispatch override: when the autotuner has installed a candidate
	// tile for this (precision, shape class), route through the candidate's
	// private breaker. Probing runs canary-shadowed (the caller always gets
	// the reference-checked result); healthy serves the tuned tile directly;
	// an open tuned breaker — possible only in the instant before Trip evicts
	// the override — falls back to the incumbent tile, never the reference.
	// resolveOverride keeps every resulting variable single-assignment: the
	// threaded-task closures below escape, and reassigning a captured
	// variable would heap-box it on the zero-alloc single-threaded path too.
	effTile, effBlk, path, kern, ovCanary := resolveOverride(plat, ks.elemBytes, class, tile, blk, famPath)
	if ovCanary {
		if runCanary(cfg, ks, plat, effTile, effBlk, mode, path, true, callTid, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) {
			return finish(telemetry.KernelRef, telemetry.OutcomeDegraded, nil)
		}
		return finish(telemetry.KernelTuned, telemetry.OutcomeOK, nil)
	}

	report := func(degraded bool, err error) error {
		switch {
		case err != nil:
			var stuck *guard.StuckWorkerError
			if errors.As(err, &stuck) {
				tel.HealEvent(telemetry.HealStuckWorker)
				return finish(kern, telemetry.OutcomeStuck, err)
			}
			if _, ok := err.(*guard.KernelPanicError); ok {
				return finish(kern, telemetry.OutcomePanic, err)
			}
			// Pool misuse (ErrClosed): the work never ran.
			return finish(kern, telemetry.OutcomeCancelled, err)
		case degraded:
			return finish(telemetry.KernelRef, telemetry.OutcomeDegraded, nil)
		default:
			return finish(kern, telemetry.OutcomeOK, nil)
		}
	}

	if cfg.Threads > 1 {
		part := analytic.PartitionFor(m, n, cfg.Threads)
		blocks := parallel.Blocks(m, n, part, effTile.MR, effTile.NR)
		if len(blocks) > 1 {
			pool := cfg.Pool
			if pool == nil {
				pool = parallel.NewPoolObserved(cfg.Threads, cfg.poolObserver())
				defer pool.Close()
			}
			// Each task owns a disjoint C sub-block, so per-task error and
			// degradation slots need no synchronization beyond the pool's
			// join.
			errs := make([]error, len(blocks))
			degr := make([]bool, len(blocks))
			tasks := make([]func(int), len(blocks))
			for bi, blkC := range blocks {
				bi, blkC := bi, blkC
				tasks[bi] = func(worker int) {
					degr[bi], errs[bi] = runGemmBlock(cfg, ks, plat, effTile, effBlk, mode, path,
						blkC, worker, callTid, k, alpha, a, lda, b, ldb, beta, c, ldc)
				}
			}
			barrierStart := tel.Now()
			poolErr := pool.RunWorkerCfg(parallel.RunConfig{TaskBudget: cfg.Deadline}, tasks)
			tel.Span(telemetry.PhaseBarrier, callTid, barrierStart, uint8(mode), prec, m, n, k)
			if poolErr != nil {
				// On a watchdog early return stragglers may still be writing
				// their errs/degr slots; the pool error must win before those
				// slices are read.
				return report(false, poolErr)
			}
			degraded := false
			for bi, err := range errs {
				if err != nil {
					return report(false, err)
				}
				degraded = degraded || degr[bi]
			}
			return report(degraded, nil)
		}
	}
	return report(runGemmBlock(cfg, ks, plat, effTile, effBlk, mode, path,
		parallel.Block{I0: 0, J0: 0, M: m, N: n}, -1, callTid,
		k, alpha, a, lda, b, ldb, beta, c, ldc))
}

// resolveOverride resolves the effective tile, blocking, breaker path and
// kernel label for one call: the tuned dispatch override's when one is
// installed for the (element size, shape class) key and its breaker is
// serving (canary true while it is probing), the incumbent's otherwise —
// including when the tuned breaker is open, which falls back to the
// incumbent tile on the fast path, never the reference. Returning fresh
// single-assignment values (instead of mutating the caller's) keeps the
// caller's closure captures by-value, preserving the zero-alloc hot path.
func resolveOverride(plat *platform.Platform, elemBytes int, class uint8, tile analytic.Tile, blk analytic.Blocking, famPath string) (analytic.Tile, analytic.Blocking, string, uint8, bool) {
	ov, ok := guard.OverrideFor(elemBytes, class)
	if !ok {
		return tile, blk, famPath, telemetry.KernelFast, false
	}
	ovTile := analytic.Tile{MR: ov.MR, NR: ov.NR}
	ovBlk := blk
	if ov.KC > 0 {
		ovBlk.KC = ov.KC
	}
	switch route, _ := heal.RouteFor(plat.Name, ov.Path); route {
	case heal.RouteCanary:
		return ovTile, ovBlk, ov.Path, telemetry.KernelTuned, true
	case heal.RouteFast:
		return ovTile, ovBlk, ov.Path, telemetry.KernelTuned, false
	}
	return tile, blk, famPath, telemetry.KernelFast, false
}

// runGemmBlock executes one C sub-block of a non-batch call through the
// hardened block runner; operand origins shift per block and mode. worker <
// 0 is the calling goroutine (single-threaded path). A plain function
// rather than a shared closure: the threaded tasks above would make such a
// closure escape, and that heap allocation would tax the single-threaded
// hot path too.
func runGemmBlock[T Float](cfg Config, ks kernelSet[T], plat *platform.Platform, tile analytic.Tile, blk analytic.Blocking, mode Mode, path string, bl parallel.Block, worker int, callTid int32, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) (bool, error) {
	aOff, ldaEff := threadAOffset(mode, bl.I0, lda)
	bOff := threadBOffset(mode, bl.J0, ldb)
	return runBlock(cfg, ks, plat, tile, blk, mode, path, bl, -1,
		telemetry.WorkerTid(worker, callTid), k,
		alpha, a[aOff:], ldaEff, b[bOff:], ldb,
		beta, c[bl.I0*ldc+bl.J0:], ldc)
}

// threadAOffset returns the element offset into A for a thread whose C block
// starts at row i0, plus the effective leading dimension (unchanged).
func threadAOffset(mode Mode, i0, lda int) (int, int) {
	if mode.TransA() {
		return i0, lda // A stored K×M: advancing M means advancing columns
	}
	return i0 * lda, lda
}

// threadBOffset returns the element offset into B for a thread whose C block
// starts at column j0.
func threadBOffset(mode Mode, j0, ldb int) int {
	if mode.TransB() {
		return j0 * ldb // B stored N×K: advancing N means advancing rows
	}
	return j0
}

func scaleAll[T Float](ks kernelSet[T], m, n int, beta T, c []T, ldc int) {
	if beta == 1 {
		return
	}
	ks.scale(m, n, beta, c, ldc)
}

// gemmST is the single-threaded Algorithm 1 loop nest for one C block. tel
// and tid carry the telemetry recorder (nil when disabled) and the trace
// lane of the executing worker; spans are recorded per kc-block — pack
// spans around the explicit A gather, kernel-batch spans around the
// micro-tile sweep (which includes the §5.3 fused B packing) — coarse
// enough to stay off the micro-tile critical path.
func gemmST[T Float](tel *telemetry.Recorder, tid int32, ks kernelSet[T], plat *platform.Platform, tile analytic.Tile, blk analytic.Blocking, mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	mr, nr := tile.MR, tile.NR
	mc, kc, nc := blk.MC, blk.KC, blk.NC
	prec := telemetry.PrecFor(ks.elemBytes)

	// §4.2 packing decision for B (NN/TN); NT/TT always pack (§4.3).
	sizeB := n * k * ks.elemBytes
	var bStrategy pack.Strategy
	if mode.TransB() {
		bStrategy = pack.ShouldPackBNT()
	} else {
		bStrategy = pack.ShouldPackBNN(sizeB, plat.L1.SizeBytes)
	}

	var bc []T
	if bStrategy != pack.NoPack {
		bc = make([]T, kc*nr)
	}
	var aBuf []T
	if mode.TransA() {
		aBuf = make([]T, mc*kc)
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
					ks.packAT(aBuf, a, lda, ii, kk, mcb, kcb)
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
					switch {
					case mode.TransB():
						// NT/TT: first micro-tile runs the inner-product
						// packing kernel (Fig 5/Alg 3), the rest consume Bc
						// with the 7×12 outer-product kernel.
						bT := b[jAbs*ldb+kk:]
						mrb := min(mr, mcb)
						ks.ntPack(mrb, nrb, kcb, alpha, aBlk, ldaEff, bT, ldb, betaEff, cTile, ldc, bc, nrb, 0)
						for i := mrb; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bc, nrb, betaEff, cTile[i*ldc:], ldc)
						}
					case bStrategy == pack.PackOverlap:
						// NN/TN with large B: pack the sliver inside the
						// first micro-tile (Alg 1 lines 6–8), overlapping
						// the copies with its FMAs; remaining tiles reuse
						// the L1-resident Bc (lines 9–11). The §5.3.2
						// lookahead depth t changes when elements are
						// packed, not what is computed; this portable
						// driver always packs the current sliver and the
						// timing model prices the t=1 variant.
						bBlk := b[kk*ldb+jAbs:]
						mrb := min(mr, mcb)
						ks.packB(mrb, nrb, kcb, alpha, aBlk, ldaEff, bBlk, ldb, betaEff, cTile, ldc, bc, nrb, 0)
						for i := mrb; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bc, nrb, betaEff, cTile[i*ldc:], ldc)
						}
					default:
						// Small B (fits L1): no packing at all (Alg 1
						// lines 12–15) — every tile streams B in place.
						bBlk := b[kk*ldb+jAbs:]
						for i := 0; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bBlk, ldb, betaEff, cTile[i*ldc:], ldc)
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
