package core

import (
	"fmt"
	"math"
	"runtime/debug"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/kernels"
	"libshalom/internal/parallel"
	"libshalom/internal/telemetry"
)

// This file is the dynamic-hardening layer of the driver: the fast route of
// every problem (a thread's C sub-block, or one batch entry) runs through
// runBlock, or through runCanary while its breaker is probing. Both run the
// fast path through runFast, which isolates panics — a panicking fast path
// is recovered and surfaced as a *guard.KernelPanicError instead of
// crashing the process or killing a pool worker — and both record a failed
// fast path through trip. On top of that, runBlock provides the numeric
// guard, when Config.NumericGuard is set: if the fast path panics or
// introduces NaN/Inf into a C block whose inputs were all finite, the
// breaker trips, the block is restored from a snapshot and recomputed on
// the portable reference path, and the call still succeeds — degraded,
// recorded, correct.
//
// The faults package's injection points live here, CorruptPack in gemmST's
// packing step (and only fire when a test armed them), so the chaos suite
// exercises exactly the machinery production calls use.

// runBlock executes the fast route for one C block with panic isolation and
// (optionally) the numeric guard. e holds the block-relative operand views
// (the same views gemmST consumes); bl carries the absolute block
// coordinates for error reporting, entry the batch entry index (-1 outside
// batch calls), and tid the trace lane of the executing worker. fp.path
// names the breaker a demotion trips: the kernel family's path for
// incumbent executions, or a tuned override's private path — tripping the
// latter evicts only that override (guard.Trip), leaving the family serving
// on the incumbent tile. The first return value reports whether the block
// was recomputed on the reference path after a demotion (the call degraded
// but succeeded).
func (cl *call[T]) runBlock(e *BatchEntry[T], fp *fastRoute, bl parallel.Block, entry int, tid int32) (degraded bool, err error) {
	cfg, tel := &cl.d.cfg, cl.d.cfg.Tel
	m, n, k := e.M, e.N, e.K
	blockStart := tel.Now()
	defer func() {
		tel.Span(telemetry.PhaseBlock, tid, blockStart, uint8(cl.mode), telemetry.PrecFor(kernels.ElemBytes[T]()), m, n, k)
	}()
	var corruptPack, inputsFinite bool
	if cfg.NumericGuard {
		corruptPack = faults.Armed(faults.CorruptPack)
		inputsFinite = finiteOperands(cl.mode, e)
	}
	// The snapshot exists to undo a partial fast-path write before the
	// reference recompute. RetryTransient alone only needs it when beta != 0:
	// with beta == 0 the reference path overwrites C without reading it, so
	// no restore is required. It comes from the driver's buffer pool.
	var snap []T
	if cfg.NumericGuard || cfg.RetryTransient && e.Beta != 0 {
		buf := getBuf[T](cl.d, m*n)
		defer putBuf(cl.d, buf)
		snap = *buf
		snapshotC(snap, e.C, m, n, e.LDC)
	}
	panicErr := cl.runFast(corruptPack, fp, e, bl, entry, tid)
	if panicErr == nil && cfg.NumericGuard {
		poison(tel, faults.SpuriousNaN, e.C)
	}
	if !cfg.NumericGuard && !cfg.RetryTransient {
		return false, panicErr
	}
	switch {
	case panicErr != nil:
		cl.trip(fp.path, guard.ReasonPanic, panicErr.Error(), m, n, k)
	case cfg.NumericGuard && inputsFinite && !finiteRect(e.C, m, n, e.LDC):
		cl.trip(fp.path, guard.ReasonNumeric, "fast path produced NaN/Inf from all-finite inputs", m, n, k)
	default:
		return false, nil
	}
	// Tripped: restore the block and recompute once on the reference path —
	// the transient retry. The degraded call succeeds; the registry records
	// why, and the breaker keeps later calls off the fast path.
	tel.HealEvent(telemetry.HealRetry)
	if snap != nil {
		restoreC(e.C, snap, m, n, e.LDC)
	}
	cl.ref(e)
	return true, nil
}

// runCanary executes one problem while its breaker is probing: the
// reference path runs first into a cloned shadow of the C rectangle, then
// the fast route runs into the real C (single-threaded, under panic
// isolation), and the two results are compared element-wise under the
// precision's tolerance.
//
// fp.path names the breaker under probation — the kernel family's path for
// healing canaries, or a tuned override's private path when the autotuner
// is proving a candidate tile on live traffic (fp then carries the
// candidate's tile and blocking).
//
// On agreement the canary counts toward closing the breaker. On any
// disagreement — a fast-path panic, an element outside tolerance, or the
// CanaryMismatch/TunerBadCandidate injection points firing — the shadow
// (the correct reference result) is copied into C, so the caller always
// receives a correct answer, and the breaker re-opens with a doubled
// cooldown (for a tuned path, the trip also evicts the dispatch override,
// restoring the incumbent tile). The returned degraded flag reports whether
// the call fell back to the reference result.
func (cl *call[T]) runCanary(e *BatchEntry[T], fp *fastRoute, tid int32) (degraded bool) {
	tel := cl.d.cfg.Tel
	tel.HealEvent(telemetry.HealCanaryRun)
	m, n := e.M, e.N

	// The shadow starts as a clone of C (dense, leading dimension n) so the
	// reference path sees the same beta·C term the fast path does.
	buf := getBuf[T](cl.d, m*n)
	defer putBuf(cl.d, buf)
	shadow := *e
	shadow.C, shadow.LDC = *buf, n
	snapshotC(shadow.C, e.C, m, n, e.LDC)
	cl.ref(&shadow)

	panicErr := cl.runFast(false, fp, e, parallel.Block{M: m, N: n}, -1, tid)
	if panicErr == nil && fp.kernel == telemetry.KernelTuned {
		// Chaos: a candidate that cleared every static proof yet computes a
		// wrong answer on live traffic. The corruption lands in the fast-path
		// result only — the comparison below must catch it and the shadow
		// must rescue the caller.
		poison(tel, faults.TunerBadCandidate, e.C)
	}

	mismatch := ""
	switch {
	case panicErr != nil:
		mismatch = panicErr.Error()
	case !guard.Agrees(e.C, e.LDC, shadow.C, n, m, n, guard.Tolerance(kernels.ElemBytes[T]())):
		mismatch = "canary disagreed with reference shadow"
	case faults.Fire(faults.CanaryMismatch):
		tel.FaultInjected(faults.CanaryMismatch)
		mismatch = "injected canary mismatch"
	}
	if mismatch != "" {
		// The reference shadow is the correct result; the call still succeeds.
		restoreC(e.C, shadow.C, m, n, e.LDC)
		tel.HealEvent(telemetry.HealCanaryMismatch)
		cl.trip(fp.path, guard.ReasonCanary, mismatch, m, n, e.K)
		return true
	}
	tel.HealEvent(telemetry.HealCanaryAgree)
	if guard.CanaryAgree(cl.d.cfg.Plat.Name, fp.path, 0) {
		tel.HealEvent(telemetry.HealBreakerClose)
	}
	return false
}

// runFast runs the fast route on one problem or block with panic
// isolation, converting a panic into a structured KernelPanicError. The
// PanicInKernel injection point fires inside the protected region, and
// corruptPack arms the CorruptPack point on the packed B panel (gemmST).
func (cl *call[T]) runFast(corruptPack bool, fp *fastRoute, e *BatchEntry[T], bl parallel.Block, entry int, tid int32) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.KernelPanicError{
				Platform: cl.d.cfg.Plat.Name,
				Mode:     cl.mode.String(),
				Kernel:   cl.fam.path,
				I0:       bl.I0, J0: bl.J0, M: bl.M, N: bl.N,
				Entry: entry,
				Value: r,
				Stack: debug.Stack(),
			}
		}
	}()
	tel := cl.d.cfg.Tel
	if faults.Fire(faults.PanicInKernel) {
		tel.FaultInjected(faults.PanicInKernel)
		panic(faults.InjectedPanicMsg)
	}
	gemmST(cl.d, tid, corruptPack, fp.tile, fp.blk, cl.mode, e.M, e.N, e.K, e.Alpha, e.A, e.LDA, e.B, e.LDB, e.Beta, e.C, e.LDC)
	return nil
}

// trip opens a failed fast route's breaker and records it: the open event
// exactly once even when several blocks of one call fail concurrently
// (guard.Trip reports whether this call recorded the trip), and the
// degradation. A canary mismatch re-opens a probing breaker; a panic or a
// numeric-guard failure opens a healthy one.
func (cl *call[T]) trip(path string, reason guard.Reason, detail string, m, n, k int) {
	tel := cl.d.cfg.Tel
	if guard.Trip(cl.d.cfg.Plat.Name, path, reason, detail, fmt.Sprintf("%s %dx%dx%d", cl.mode, m, n, k), 0) {
		tel.HealEvent(telemetry.HealBreakerOpen)
	}
	tel.DegradationEvent(reason)
}

// poison is the corruption hook of the injection points that falsify a
// fast-path result: when p fires, the first element becomes NaN, which the
// guard downstream (numeric guard, canary comparison) must catch.
func poison[T Float](tel *telemetry.Recorder, p faults.Point, s []T) {
	if faults.Fire(p) {
		tel.FaultInjected(p)
		s[0] = T(math.NaN())
	}
}

// finiteOperands scans the operand views of one block for NaN/Inf. The scan
// covers the rectangle each effective operand occupies (rows × cols through
// its leading dimension); C is scanned only when beta != 0, since beta == 0
// overwrites C without reading it.
func finiteOperands[T Float](mode Mode, e *BatchEntry[T]) bool {
	arows, acols := e.M, e.K
	if mode.TransA() {
		arows, acols = e.K, e.M
	}
	brows, bcols := e.K, e.N
	if mode.TransB() {
		brows, bcols = e.N, e.K
	}
	return finiteRect(e.A, arows, acols, e.LDA) && finiteRect(e.B, brows, bcols, e.LDB) &&
		(e.Beta == 0 || finiteRect(e.C, e.M, e.N, e.LDC))
}

// finiteRect reports whether every element of the rows×cols rectangle with
// leading dimension ld is finite.
func finiteRect[T Float](s []T, rows, cols, ld int) bool {
	for i := 0; i < rows; i++ {
		row := s[i*ld : i*ld+cols]
		for _, v := range row {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// snapshotC copies the m×n C block out of its strided storage into the
// dense snap.
func snapshotC[T Float](snap, c []T, m, n, ld int) {
	for i := 0; i < m; i++ {
		copy(snap[i*n:(i+1)*n], c[i*ld:i*ld+n])
	}
}

// restoreC writes a snapshot back into the strided C block.
func restoreC[T Float](c, snap []T, m, n, ld int) {
	for i := 0; i < m; i++ {
		copy(c[i*ld:i*ld+n], snap[i*n:(i+1)*n])
	}
}
