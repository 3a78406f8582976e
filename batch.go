package libshalom

import (
	"context"

	"libshalom/internal/core"
)

// SBatchEntry is one independent FP32 GEMM of a batch call.
type SBatchEntry = core.BatchEntry[float32]

// DBatchEntry is one independent FP64 GEMM of a batch call.
type DBatchEntry = core.BatchEntry[float64]

// SGEMMBatch executes many independent small FP32 GEMMs under one mode,
// spreading entries across the context's worker pool when their summed
// work pays for the fork (see WithThreads). This is the paper's
// small-GEMM parallelization model (§7.4): each problem runs the
// single-threaded driver; parallelism comes from problem independence —
// the pattern CP2K's block-sparse multiplications use.
//
// Entries must not write overlapping C storage; CheckSBatchAliasing checks
// that, and a Context built WithAliasCheck validates it on every batch call.
func (c *Context) SGEMMBatch(mode Mode, batch []SBatchEntry) error {
	//shalom:allow ctxflow — the no-context convenience API is itself the root
	return c.SGEMMBatchCtx(context.Background(), mode, batch)
}

// DGEMMBatch is the FP64 counterpart of SGEMMBatch.
func (c *Context) DGEMMBatch(mode Mode, batch []DBatchEntry) error {
	//shalom:allow ctxflow — the no-context convenience API is itself the root
	return c.DGEMMBatchCtx(context.Background(), mode, batch)
}

// SGEMMBatchCtx is SGEMMBatch with cooperative cancellation: the runtime
// observes ctx between entries (an entry runs whole or not at all) and a
// cancelled context aborts the rest of the batch with a *BatchCancelError —
// errors.Is(err, context.Canceled) holds, Completed counts entries whose
// results are exactly those of an uncancelled run.
func (c *Context) SGEMMBatchCtx(ctx context.Context, mode Mode, batch []SBatchEntry) error {
	return core.SGEMMBatchCtx(ctx, c.drv, mode, batch)
}

// DGEMMBatchCtx is the FP64 counterpart of SGEMMBatchCtx.
func (c *Context) DGEMMBatchCtx(ctx context.Context, mode Mode, batch []DBatchEntry) error {
	return core.DGEMMBatchCtx(ctx, c.drv, mode, batch)
}
