package core

import (
	"context"
	"sync/atomic"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/kernels"
	"libshalom/internal/parallel"
	"libshalom/internal/telemetry"
)

// The dispatch ladder. Every problem — a whole non-batch call or one batch
// entry — walks the same rungs in order, and records one telemetry row
// (kernel, outcome):
//
//  1. the SlowShapeClass chaos delay, inside the timed region;
//  2. the zero-size and α=0 (or k=0) early-outs, which need no kernel;
//  3. the kernel family's breaker: open routes to the reference path,
//     probing to the canary shadow;
//  4. the tuned override for the problem's shape class: probing runs the
//     candidate canary-shadowed, healthy serves the tuned tile, open keeps
//     the incumbent;
//  5. the hardened block runner on the resolved fast route, split over the
//     pool by the planned §6 partition when the plan forks.

// call is what every problem of one driver invocation shares. The
// single-call driver builds one per call, the batch driver one per batch.
type call[T Float] struct {
	d *Driver
	// fam is the kernel family's fast route: its breaker path and the
	// Eq. 1–2 tile with the platform's cache blocking.
	fam  *fastRoute
	mode Mode
	// threads and part are a single call's planned fork-join width and §6
	// partition (see split). Batch entries leave threads zero and run
	// serially: the batch spreads whole entries over the pool instead.
	threads int
	part    analytic.Partition
	// tid is the caller's trace lane.
	tid int32
}

// fastRoute is a resolved fast path: the tile and blocking to run, the
// breaker a failure trips, and the kernel label of the telemetry row.
type fastRoute struct {
	tile   analytic.Tile
	blk    analytic.Blocking
	path   string
	kernel uint8
}

// newCall opens the plan phase of both drivers: contract verification
// (memoised per platform — the registration-time leg of the fallback
// chain, tripping the breaker of any kernel family that fails) and the
// precision's resolved fast route.
func newCall[T Float](d *Driver, mode Mode) call[T] {
	guard.VerifyContracts(d.cfg.Plat)
	return call[T]{d: d, fam: d.fast(kernels.ElemBytes[T]()), mode: mode, tid: d.cfg.Tel.CallTid()}
}

// run takes one problem down the ladder and records its telemetry row.
// entry is the batch index (-1 for a single call), worker the pool worker
// running it (-1 for the calling goroutine), and start when the problem's
// timed region began.
func (cl *call[T]) run(e *BatchEntry[T], entry, worker int, start int64) error {
	tel := cl.d.cfg.Tel
	class := uint8(telemetry.ClassifyShape(e.M, e.N, e.K))
	if d := faults.SlowClassFire(class); d > 0 {
		// Chaos: a kernel that regressed on this workload regime. Timing
		// only — the delay lands inside the timed region so the attribution
		// engine sees the class underperform its model.
		tel.FaultInjected(faults.SlowShapeClass)
		time.Sleep(d)
	}
	kernel, outcome, err := cl.route(e, class, entry, telemetry.WorkerTid(worker, cl.tid))
	tel.CallDone(telemetry.PrecFor(kernels.ElemBytes[T]()), uint8(cl.mode), class, kernel, outcome, start,
		2*float64(e.M)*float64(e.N)*float64(e.K))
	return err
}

// route walks rungs 2–5 for one problem and returns its telemetry row.
func (cl *call[T]) route(e *BatchEntry[T], class uint8, entry int, tid int32) (kernel, outcome uint8, err error) {
	if e.M == 0 || e.N == 0 {
		return telemetry.KernelFast, telemetry.OutcomeOK, nil
	}
	if e.Alpha == 0 || e.K == 0 {
		if e.Beta != 1 {
			kernels.ScaleRows(e.M, e.N, e.Beta, e.C, e.LDC)
		}
		return telemetry.KernelFast, telemetry.OutcomeOK, nil
	}
	// Routing is per problem: a breaker that heals (or trips) mid-batch
	// takes effect from the next entry on.
	fp := cl.fam
	canary := false
	var tuned fastRoute
	switch cl.dispatch(fp.path) {
	case guard.DispatchRef:
		cl.ref(e)
		return telemetry.KernelRef, telemetry.OutcomeOK, nil
	case guard.DispatchCanary:
		canary = true
	default:
		fp, canary = cl.tuned(class, &tuned)
	}
	var degraded bool
	switch {
	case canary:
		// Canaries run single-threaded — the shadow doubles the work
		// anyway, and the probing window is short.
		degraded = cl.runCanary(e, fp, tid)
	case cl.threads > 1:
		degraded, err = cl.runSplit(e, fp)
	default:
		degraded, err = cl.runBlock(e, fp, parallel.Block{M: e.M, N: e.N}, entry, tid)
	}
	switch {
	case err != nil:
		if _, ok := err.(*guard.StuckWorkerError); ok {
			return fp.kernel, telemetry.OutcomeStuck, err
		}
		if _, ok := err.(*guard.KernelPanicError); ok {
			return fp.kernel, telemetry.OutcomePanic, err
		}
		// Pool misuse (ErrClosed): the work never ran.
		return fp.kernel, telemetry.OutcomeCancelled, err
	case degraded:
		return telemetry.KernelRef, telemetry.OutcomeDegraded, nil
	}
	return fp.kernel, telemetry.OutcomeOK, nil
}

// dispatch asks a breaker where this problem goes, counting the
// open→probing transition the decision may have made.
func (cl *call[T]) dispatch(path string) guard.Disposition {
	d, beganProbe := guard.Dispatch(cl.d.cfg.Plat.Name, path, 0)
	if beganProbe {
		cl.d.cfg.Tel.HealEvent(telemetry.HealBreakerProbe)
	}
	return d
}

// tuned resolves the fast route of a healthy kernel family for a shape
// class. When the autotuner installed a tuned override for the class, the
// override's private breaker decides: probing runs the candidate
// canary-shadowed (canary true, so the caller always gets the
// reference-checked result), healthy serves the tuned tile, and open —
// possible only in the instant before Trip evicts the override — keeps the
// incumbent tile on the fast path, never the reference. A tuned route is
// built in into, which the caller owns.
func (cl *call[T]) tuned(class uint8, into *fastRoute) (fp *fastRoute, canary bool) {
	ov, ok := guard.OverrideFor(kernels.ElemBytes[T](), class)
	if !ok {
		return cl.fam, false
	}
	d := cl.dispatch(ov.Path)
	if d == guard.DispatchRef {
		return cl.fam, false
	}
	*into = fastRoute{tile: analytic.Tile{MR: ov.MR, NR: ov.NR}, blk: cl.fam.blk, path: ov.Path, kernel: telemetry.KernelTuned}
	if ov.KC > 0 {
		into.blk.KC = ov.KC
	}
	return into, d == guard.DispatchCanary
}

// ref runs a problem on the portable reference path.
func (cl *call[T]) ref(e *BatchEntry[T]) {
	kernels.GEMMRef(cl.mode.TransA(), cl.mode.TransB(), e.M, e.N, e.K, e.Alpha, e.A, e.LDA, e.B, e.LDB, e.Beta, e.C, e.LDC)
}

// splitRun is one §6 split, shared by the pool units that run its blocks.
// The units escape to the pool, so everything they read lives in this one
// allocation: a captured pointer to the caller's call or problem would move
// those to the heap on the single-threaded path too.
type splitRun[T Float] struct {
	cl       call[T]
	e        BatchEntry[T]
	fp       fastRoute
	blocks   []parallel.Block
	degraded atomic.Bool
}

// run is the split's unit i: block i of the partition.
func (s *splitRun[T]) run(i, worker int) error {
	bl := s.blocks[i]
	sub := s.e.block(s.cl.mode, bl)
	degraded, err := s.cl.runBlock(&sub, &s.fp, bl, -1, telemetry.WorkerTid(worker, s.cl.tid))
	if degraded {
		s.degraded.Store(true)
	}
	return err
}

// runSplit is the single-call driver's §6 parallel split of the fast route:
// the planned partition's C blocks, aligned to the plan's tile even when a
// tuned tile serves them, run as one pool unit each.
func (cl *call[T]) runSplit(e *BatchEntry[T], fp *fastRoute) (bool, error) {
	s := &splitRun[T]{cl: *cl, e: *e, fp: *fp, blocks: parallel.Blocks(e.M, e.N, cl.part, cl.fam.tile.MR, cl.fam.tile.NR)}
	if err := cl.fork(nil, cl.threads, len(s.blocks), s.run, e.M, e.N, e.K); err != nil {
		return false, err
	}
	return s.degraded.Load(), nil
}

// fork is the driver's one fork-join, shared by the §6 split and the batch:
// units 0..units-1 of body on the shared pool, at most width at once, under
// ctx (nil: not cancellable) and the driver's watchdog budget. It records
// the barrier span over the m×n×k extent and a watchdog early return.
func (cl *call[T]) fork(ctx context.Context, width, units int, body func(i, worker int) error, m, n, k int) error {
	tel := cl.d.cfg.Tel
	start := tel.Now()
	err := cl.d.forkPool().Run(parallel.RunConfig{Ctx: ctx, TaskBudget: cl.d.cfg.Deadline}, width, units, body)
	tel.Span(telemetry.PhaseBarrier, cl.tid, start, uint8(cl.mode), telemetry.PrecFor(kernels.ElemBytes[T]()), m, n, k)
	if _, stuck := err.(*guard.StuckWorkerError); stuck {
		tel.HealEvent(telemetry.HealStuckWorker)
	}
	return err
}

// block returns the operand views of the C sub-block bl of e: operand
// origins shift per block and mode.
func (e *BatchEntry[T]) block(mode Mode, bl parallel.Block) BatchEntry[T] {
	sub := *e
	sub.M, sub.N = bl.M, bl.N
	if mode.TransA() {
		sub.A = e.A[bl.I0:] // A stored K×M: advancing M means advancing columns
	} else {
		sub.A = e.A[bl.I0*e.LDA:]
	}
	if mode.TransB() {
		sub.B = e.B[bl.J0*e.LDB:] // B stored N×K: advancing N means advancing rows
	} else {
		sub.B = e.B[bl.J0:]
	}
	sub.C = e.C[bl.I0*e.LDC+bl.J0:]
	return sub
}
