package core

import (
	"runtime"
	"sync"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/guard"
	"libshalom/internal/kernels"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// Config carries the options of a driver; NewDriver resolves them once.
type Config struct {
	// Plat selects the platform model whose cache capacities drive the
	// packing decision (§4.2) and blocking parameters. Defaults to
	// Kunpeng 920 when nil.
	Plat *platform.Platform
	// Threads is the requested parallel width. Zero or less selects the
	// §7.4 automatic policy: small calls request one worker, irregular or
	// large calls and every batch request GOMAXPROCS. Either way the width
	// is a cap: a call or batch forks only as wide as the work rule
	// (forkWidth) lets its work pay for.
	Threads int
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
	// Tel is the optional telemetry recorder the calls report into: per-
	// shape metrics, phase trace spans, pool gauges. nil disables the layer;
	// the disabled hot path performs zero atomic writes and zero
	// allocations (proven by shalom-vet, see internal/telemetry).
	Tel *telemetry.Recorder
}

// Driver is a Config resolved once: the defaulted platform and, per
// precision, the fast route every call starts from (the Eq. 1–2 tile, the
// platform's blocking and the kernel family's breaker path). It owns the
// shared worker pool, started by the first call or batch that forks, and
// beside it one buffer pool per precision, which hands out the B panels,
// the TN/TT A blocks and the β ≠ 0 C snapshots (getBuf), so a steady-state
// call allocates none of them. A call computes only what depends on the
// call. A Driver is safe for concurrent use.
type Driver struct {
	cfg      Config
	f32, f64 fastRoute
	// bufs32 and bufs64 hold *[]float32 and *[]float64 buffers.
	bufs32, bufs64 sync.Pool

	mu   sync.Mutex
	pool *parallel.Pool
}

// NewDriver resolves cfg. It starts nothing: contract verification runs on
// the first call (memoised per platform), and the pool on the first fork.
func NewDriver(cfg Config) *Driver {
	if cfg.Plat == nil {
		cfg.Plat = platform.KP920()
	}
	return &Driver{cfg: cfg, f32: newFastRoute(cfg.Plat, 4), f64: newFastRoute(cfg.Plat, 8)}
}

// newFastRoute is the incumbent route of one precision on plat.
func newFastRoute(plat *platform.Platform, elemBytes int) fastRoute {
	return fastRoute{
		tile:   analytic.SolveForElem(elemBytes),
		blk:    analytic.BlockingFor(plat, elemBytes),
		path:   guard.PathFor(elemBytes),
		kernel: telemetry.KernelFast,
	}
}

// fast returns the resolved fast route of a precision.
func (d *Driver) fast(elemBytes int) *fastRoute {
	if elemBytes == 8 {
		return &d.f64
	}
	return &d.f32
}

// getBuf returns a buffer of n elements from the driver's pool of T's
// precision. Its contents are stale: the caller writes every element it
// reads. Hand it back with putBuf.
func getBuf[T Float](d *Driver, n int) *[]T {
	if b, ok := d.bufs(kernels.ElemBytes[T]()).Get().(*[]T); ok {
		if cap(*b) < n {
			*b = make([]T, n)
		}
		*b = (*b)[:n]
		return b
	}
	b := make([]T, n)
	return &b
}

// putBuf returns a buffer to its pool, unless it is larger than the
// largest pack buffer of its precision's blocking (a kc×nc panel or an
// mc×kc A block): like fmt's printer pool, the pool keeps no buffer a
// single huge β ≠ 0 snapshot grew, which would otherwise stay parked in it.
func putBuf[T Float](d *Driver, b *[]T) {
	eb := kernels.ElemBytes[T]()
	if blk := d.fast(eb).blk; cap(*b) <= blk.KC*max(blk.NC, blk.MC) {
		d.bufs(eb).Put(b)
	}
}

// bufs is the buffer pool of a precision.
func (d *Driver) bufs(elemBytes int) *sync.Pool {
	if elemBytes == 8 {
		return &d.bufs64
	}
	return &d.bufs32
}

// Close releases the worker pool, if one was started. The driver remains
// usable; the next fork starts a new pool. Close must not overlap
// in-flight calls.
func (d *Driver) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool != nil {
		d.pool.Close()
		d.pool = nil
	}
}

// Pool returns the started worker pool, or nil before the first fork and
// after Close.
func (d *Driver) Pool() *parallel.Pool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool
}

// forkPool returns the shared pool, starting it requested() workers wide
// so that it serves every width.
func (d *Driver) forkPool() *parallel.Pool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pool == nil {
		d.pool = parallel.NewPoolObserved(d.requested(), d.cfg.Tel)
	}
	return d.pool
}

// requested is the widest the driver forks: the configured width, or the
// machine's parallelism under the automatic policy.
func (d *Driver) requested() int {
	if d.cfg.Threads > 0 {
		return d.cfg.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// threadsFor is the width a single call requests: the configured width, or
// under the automatic policy the §7.4 answer by the problem's shape class —
// small GEMM runs single-threaded (parallelism across independent problems
// is the caller's job); irregular or large GEMM uses every core. The work
// rule caps it (split).
func (d *Driver) threadsFor(m, n, k int) int {
	class := telemetry.ClassifyShape(m, n, k)
	if d.cfg.Threads > 0 || class == telemetry.ShapeIrregular || class == telemetry.ShapeLarge {
		return d.requested()
	}
	return 1
}

// recordWidth records a call's or batch's planned width against
// requested() in the thread-policy telemetry.
func (d *Driver) recordWidth(threads int) {
	if d.cfg.Tel != nil {
		d.cfg.Tel.ThreadChoice(d.requested(), threads)
	}
}
