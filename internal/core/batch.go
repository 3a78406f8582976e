package core

import (
	"context"
	"errors"
	"fmt"
	"unsafe"

	"libshalom/internal/kernels"
	"libshalom/internal/telemetry"
)

// BatchEntry is one independent GEMM of a batch. The paper's small-GEMM
// methodology (§7.4) parallelizes across independent problems rather than
// inside one small problem; Batch implements exactly that: every entry runs
// the single-threaded LibShalom driver, and the batch is spread over the
// worker pool as wide as its summed work pays for (poolWidth).
type BatchEntry[T Float] struct {
	M, N, K int
	Alpha   T
	A       []T
	LDA     int
	B       []T
	LDB     int
	Beta    T
	C       []T
	LDC     int
}

// BatchCancelError reports a batch call abandoned because its context was
// cancelled: Completed entries ran to completion (their results are exactly
// what the uncancelled run would have produced — entries never run
// partially), the remaining Total-Completed entries were not started.
// Unwrap returns the context's error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work as expected.
type BatchCancelError struct {
	Completed, Total int
	// Done[i] reports whether entry i ran to completion; len(Done) == Total.
	// Entries run whole or not at all, so a Done entry's C holds exactly the
	// uncancelled result and an un-Done entry's C is untouched — the per-entry
	// accounting a serving layer needs to answer each request individually.
	Done  []bool
	Cause error
}

func (e *BatchCancelError) Error() string {
	return fmt.Sprintf("core: batch cancelled after %d/%d entries: %v", e.Completed, e.Total, e.Cause)
}

// Unwrap returns the context error that caused the cancellation.
func (e *BatchCancelError) Unwrap() error { return e.Cause }

// SGEMMBatch executes a batch of independent FP32 GEMMs, all under the same
// transposition mode. Entries are validated up front; execution is
// all-or-nothing with respect to validation (no entry runs if any is
// malformed), and per-entry results are independent.
func SGEMMBatch(d *Driver, mode Mode, batch []BatchEntry[float32]) error {
	//shalom:allow ctxflow — the no-context convenience API is itself the root
	return gemmBatch(context.Background(), d, mode, batch)
}

// DGEMMBatch is the FP64 counterpart of SGEMMBatch.
func DGEMMBatch(d *Driver, mode Mode, batch []BatchEntry[float64]) error {
	//shalom:allow ctxflow — the no-context convenience API is itself the root
	return gemmBatch(context.Background(), d, mode, batch)
}

// SGEMMBatchCtx is SGEMMBatch with cooperative cancellation: the runtime
// polls ctx between entries (never inside one), and a cancelled context
// aborts the remaining entries with a *BatchCancelError carrying
// partial-completion accounting.
func SGEMMBatchCtx(ctx context.Context, d *Driver, mode Mode, batch []BatchEntry[float32]) error {
	return gemmBatch(ctx, d, mode, batch)
}

// DGEMMBatchCtx is the FP64 counterpart of SGEMMBatchCtx.
func DGEMMBatchCtx(ctx context.Context, d *Driver, mode Mode, batch []BatchEntry[float64]) error {
	return gemmBatch(ctx, d, mode, batch)
}

func gemmBatch[T Float](ctx context.Context, d *Driver, mode Mode, batch []BatchEntry[T]) error {
	if ctx == nil {
		ctx = context.Background() //shalom:allow ctxflow — nil-ctx callers opted out of cancellation
	}
	for i := range batch {
		e := &batch[i]
		if err := CheckArgs(mode, e.M, e.N, e.K, e.A, e.LDA, e.B, e.LDB, e.C, e.LDC); err != nil {
			return fmt.Errorf("core: batch entry %d: %w", i, err)
		}
	}
	if d.cfg.CheckAlias {
		if err := CheckBatchAliasing(batch); err != nil {
			return err
		}
	}
	threads := poolWidth(d.requested(), batch)
	d.recordWidth(threads)
	if len(batch) == 0 {
		return nil
	}
	if d.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.Deadline)
		defer cancel()
	}
	// Entries run the dispatch ladder single-threaded: the batch spreads
	// whole entries over the pool instead of splitting one.
	cl := newCall[T](d, mode)

	// ran marks the entries that ran to the end. Entries run whole or not
	// at all, so their results are identical to an uncancelled run's; slots
	// are written by exactly one pool unit each and read only after the join, so
	// cancellation telemetry can label the abandoned entries precisely and
	// BatchCancelError can carry per-entry accounting.
	ran := make([]bool, len(batch))
	if threads > 1 {
		return runPooled(ctx, cl, threads, batch, ran)
	}
	for i := range batch {
		if ctx.Err() != nil {
			return cl.cancelled(ctx, batch, ran)
		}
		if err := cl.run(&batch[i], i, -1, d.cfg.Tel.Now()); err != nil {
			return err
		}
		ran[i] = true
	}
	return nil
}

// runPooled spreads a batch threads wide over the worker pool in chunks, so
// tiny problems do not drown in unit hand-out. cl is taken by value: the
// escaping chunk body captures it, and a captured pointer would move the
// caller's call to the heap on the serial path too.
func runPooled[T Float](ctx context.Context, cl call[T], threads int, batch []BatchEntry[T], ran []bool) error {
	chunk := max((len(batch)+threads*4-1)/(threads*4), 1)
	err := cl.fork(ctx, threads, (len(batch)+chunk-1)/chunk, func(c, worker int) error {
		for i := c * chunk; i < min((c+1)*chunk, len(batch)); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := cl.run(&batch[i], i, worker, cl.d.cfg.Tel.Now()); err != nil {
				return err
			}
			ran[i] = true
		}
		return nil
	}, len(batch), 0, 0)
	if cause := ctx.Err(); cause != nil && errors.Is(err, cause) {
		// A cancelled run joins every unit it handed out, so ran is final;
		// a watchdog early return (a *guard.StuckWorkerError) is not.
		return cl.cancelled(ctx, batch, ran)
	}
	return err
}

// cancelled reports a batch abandoned because ctx is done. Entries the
// cancellation abandoned are counted with outcome "cancelled" so snapshot
// call totals always match entries issued.
func (cl *call[T]) cancelled(ctx context.Context, batch []BatchEntry[T], ran []bool) error {
	completed := 0
	for i, done := range ran {
		if done {
			completed++
			continue
		}
		e := batch[i]
		cl.d.cfg.Tel.CallEvent(telemetry.PrecFor(kernels.ElemBytes[T]()), uint8(cl.mode),
			uint8(telemetry.ClassifyShape(e.M, e.N, e.K)),
			telemetry.KernelFast, telemetry.OutcomeCancelled)
	}
	return &BatchCancelError{Completed: completed, Total: len(batch), Done: ran, Cause: ctx.Err()}
}

// ErrAliasedBatch is returned by CheckBatchAliasing when two entries write
// overlapping C storage.
var ErrAliasedBatch = errors.New("core: batch entries write overlapping C storage")

// CheckBatchAliasing detects entries whose C slices share underlying
// storage regions. The batch runner does not synchronize between entries,
// so aliased outputs race; callers can run this check in tests or debug
// builds, and batch calls run it up front when Config.CheckAlias is set.
// Detection compares the address extents of the C slices, so
// adjacent-but-disjoint views of one backing array pass.
func CheckBatchAliasing[T Float](batch []BatchEntry[T]) error {
	type extent struct{ lo, hi uintptr }
	size := uintptr(kernels.ElemBytes[T]())
	extents := make([]extent, 0, len(batch))
	for _, e := range batch {
		if len(e.C) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(e.C)))
		hi := lo + uintptr(len(e.C))*size
		for _, x := range extents {
			if lo < x.hi && x.lo < hi {
				return ErrAliasedBatch
			}
		}
		extents = append(extents, extent{lo, hi})
	}
	return nil
}
