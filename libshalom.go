// Package libshalom is a Go reproduction of LibShalom — "Optimizing Small
// and Irregular-Shaped Matrix Multiplications on ARMv8 Multi-Cores"
// (Yang, Fang, Dong, Su, Wang; SC '21) — as a complete, documented library.
//
// The package exposes:
//
//   - SGEMM/DGEMM: LibShalom's GEMM (all four NN/NT/TN/TT modes, α/β
//     scalars, row-major operands with explicit leading dimensions),
//     implementing the paper's driver: runtime packing decisions (§4),
//     micro-kernel-level packing overlapped with computation (§5.3), the
//     analytically derived 7×12 / 7×6 micro-kernel tiles (§5.2), and the
//     shape-aware two-level parallel partition Tn = ⌈√(T·N/M)⌉ (§6).
//   - A Context for configuring the platform model and thread count, with
//     an automatic small-vs-irregular threading policy matching §7.4.
//   - Analytic queries (MicroKernelTile, Blocking, Partition) exposing the
//     paper's models.
//   - Predict, the performance model used to regenerate the paper's
//     figures on the three simulated ARMv8 platforms (see DESIGN.md for
//     the simulation substitution).
//
// Matrices are row-major; element (i, j) of an r×c operand with leading
// dimension ld lives at data[i*ld + j]. Transposed operands (the T modes)
// are supplied as stored: a TransA operand is the K×M row-major storage of
// the logical M×K matrix A.
package libshalom

import (
	"fmt"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/baselines"
	"libshalom/internal/core"
	"libshalom/internal/perfsim"
	"libshalom/internal/platform"
	"libshalom/internal/tuner"
)

// Mode selects the GEMM transposition mode; see core.Mode.
type Mode = core.Mode

// GEMM transposition modes, following BLAS naming (§3.3 of the paper).
const (
	NN = core.NN
	NT = core.NT
	TN = core.TN
	TT = core.TT
)

// ParseMode converts "NN"/"NT"/"TN"/"TT" into a Mode.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Platform is a processor model; the library's packing decisions and
// blocking parameters derive from its cache hierarchy.
type Platform = platform.Platform

// The three evaluation platforms of the paper (Table 1), plus the SVE-512
// A64FX that §5.5 names as a porting target.
var (
	Phytium2000 = platform.Phytium2000
	KP920       = platform.KP920
	ThunderX2   = platform.ThunderX2
	A64FX       = platform.A64FX
)

// Context carries the configuration of GEMM calls. The zero value is NOT
// ready to use; call New. A Context is safe for concurrent use: GEMM calls
// from multiple goroutines share its worker pool.
type Context struct {
	cfg core.Config // what the options set; New resolves it into drv
	drv *core.Driver
}

// Option configures a Context.
type Option func(*Context)

// WithPlatform selects the platform model whose cache hierarchy drives
// packing decisions and blocking. Default: Kunpeng 920.
func WithPlatform(p *Platform) Option {
	return func(c *Context) { c.cfg.Plat = p }
}

// WithThreads sets the parallel width. Zero restores the automatic policy:
// small inputs run single-threaded, irregular-shaped inputs use all cores
// (§7.4). One disables parallelism. Any width is a cap: a call or batch
// forks only as many workers as its work pays for (PlanFor reports them).
func WithThreads(n int) Option {
	return func(c *Context) { c.cfg.Threads = n }
}

// WithNumericGuard enables the runtime numeric guard: the driver scans
// operand and result blocks for NaN/Inf, and a fast-path kernel that panics
// or manufactures non-finite values from all-finite inputs is demoted — per
// (platform, precision) — to the portable reference path. The degraded call
// still succeeds; Degradations reports what was demoted and why. The scans
// cost a pass over the operands, so this is a debug/hardening option, not
// the default.
func WithNumericGuard() Option {
	return func(c *Context) { c.cfg.NumericGuard = true }
}

// WithAliasCheck makes batch calls validate up front that no two entries
// write overlapping C storage, returning ErrAliasedBatch instead of racing.
// Adjacent-but-disjoint views of one backing array are allowed.
func WithAliasCheck() Option {
	return func(c *Context) { c.cfg.CheckAlias = true }
}

// WithDeadline bounds every call made through the context. A call or batch
// whose plan forks arms the stuck-worker watchdog with d as the per-block
// budget: a worker exceeding it converts the call into a *StuckWorkerError
// instead of a hang (the output buffer is then undefined — the stuck
// goroutine cannot be killed). The watchdog covers forked calls only, as
// it always left single-threaded ones unwatched. Batch calls additionally
// abandon unstarted entries once d expires, surfacing a *BatchCancelError
// that unwraps to context.DeadlineExceeded. Zero disables the bound.
func WithDeadline(d time.Duration) Option {
	return func(c *Context) { c.cfg.Deadline = d }
}

// WithoutTransientRetry disables the transparent transient-fault retry. By
// default a fast path that panics trips its circuit breaker and the failed
// block is recomputed once on the reference path — the call succeeds,
// degraded. Without the retry, such a panic surfaces as *KernelPanicError
// (the pre-self-healing behaviour, useful when callers want to observe raw
// failures).
func WithoutTransientRetry() Option {
	return func(c *Context) { c.cfg.RetryTransient = false }
}

// New builds a Context. The options take effect here: New resolves them
// into the driver every call of the Context runs.
func New(opts ...Option) *Context {
	c := &Context{cfg: core.Config{Plat: platform.KP920(), RetryTransient: true}}
	for _, o := range opts {
		o(c)
	}
	c.drv = core.NewDriver(c.cfg)
	return c
}

// Close releases the context's worker pool, if one was started. The context
// remains usable; a new pool is started on demand. Close must not overlap
// in-flight GEMM calls.
func (c *Context) Close() { c.drv.Close() }

// Platform returns the context's platform model.
func (c *Context) Platform() *Platform { return c.cfg.Plat }

// SGEMM computes C = alpha·op(A)·op(B) + beta·C in single precision.
// op(A) is m×k and op(B) is k×n.
func (c *Context) SGEMM(mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, cOut []float32, ldc int) error {
	return core.SGEMM(c.drv, mode, m, n, k, alpha, a, lda, b, ldb, beta, cOut, ldc)
}

// DGEMM computes C = alpha·op(A)·op(B) + beta·C in double precision.
func (c *Context) DGEMM(mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, cOut []float64, ldc int) error {
	return core.DGEMM(c.drv, mode, m, n, k, alpha, a, lda, b, ldb, beta, cOut, ldc)
}

var defaultCtx = New()

// SGEMM runs single-precision GEMM on the default context.
func SGEMM(mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return defaultCtx.SGEMM(mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM runs double-precision GEMM on the default context.
func DGEMM(mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return defaultCtx.DGEMM(mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// Plan describes every decision the driver takes for a call (tile,
// blocking, §4 packing strategy, §6 partition); see core.Plan.
type Plan = core.Plan

// PlanFor returns the execution plan a context follows for the given call,
// without running it. elemBytes is 4 (FP32) or 8 (FP64).
func (c *Context) PlanFor(mode Mode, m, n, k, elemBytes int) Plan {
	return core.PlanFor(c.drv, mode, m, n, k, elemBytes)
}

// Tile is a solved micro-kernel register tile.
type Tile = analytic.Tile

// MicroKernelTile returns the analytically optimal micro-kernel tile for an
// element size in bytes (§5.2, Eq. 1–2): 7×12 for FP32, 7×6 for FP64.
func MicroKernelTile(elemBytes int) Tile { return analytic.SolveForElem(elemBytes) }

// TuneTile runs the §10 future-work search: every feasible register tile
// evaluated through the instruction-level timing model on the platform,
// returning the searched optimum and the analytic tile's standing. On all
// modeled platforms the analytic tile ties the searched optimum (tested).
func TuneTile(p *Platform, elemBytes int) (best, analyticTile Tile) {
	r := tuner.SearchTile(p, elemBytes)
	return Tile{MR: r.Best.MR, NR: r.Best.NR, CMR: r.Best.CMR},
		analytic.SolveForElem(elemBytes)
}

// MicroKernelTileForVector solves Eq. 1–2 for an arbitrary SVE vector width
// in bits (§5.5): 128 reproduces the NEON tiles; wider vectors yield e.g.
// 9×16 (SVE-256 FP32) and 15×16 (SVE-512 FP32).
func MicroKernelTileForVector(vectorBits, elemBytes int) (Tile, error) {
	return analytic.SolveForVector(vectorBits, elemBytes)
}

// Blocking holds the Goto-loop cache blocking parameters.
type Blocking = analytic.Blocking

// BlockingFor derives (mc, kc, nc) for a platform and element size (§5.5).
func BlockingFor(p *Platform, elemBytes int) Blocking { return analytic.BlockingFor(p, elemBytes) }

// Partition is a two-level parallel work split.
type Partition = analytic.Partition

// PartitionFor computes the shape-aware parallel partition of §6:
// Tn = ⌈√(T·N/M)⌉ rounded to a divisor of T.
func PartitionFor(m, n, threads int) Partition { return analytic.PartitionFor(m, n, threads) }

// Implementation identifies a modeled GEMM implementation for Predict.
type Implementation = perfsim.Library

// Implementations for performance prediction: LibShalom itself and the five
// libraries the paper compares against (§7.3).
func ImplLibShalom() Implementation { return perfsim.LibShalom() }

// ImplOpenBLAS returns the OpenBLAS persona.
func ImplOpenBLAS() Implementation { return perfsim.Baseline(baselines.OpenBLAS) }

// ImplBLIS returns the BLIS persona.
func ImplBLIS() Implementation { return perfsim.Baseline(baselines.BLIS) }

// ImplARMPL returns the ARM Performance Libraries persona.
func ImplARMPL() Implementation { return perfsim.Baseline(baselines.ARMPL) }

// ImplBLASFEO returns the BLASFEO persona.
func ImplBLASFEO() Implementation { return perfsim.Baseline(baselines.BLASFEO) }

// ImplLIBXSMM returns the LIBXSMM persona.
func ImplLIBXSMM() Implementation { return perfsim.Baseline(baselines.LIBXSMM) }

// Prediction is the performance model's output for one workload.
type Prediction struct {
	Seconds float64
	GFLOPS  float64
	// PercentOfPeak is relative to the platform peak at the used thread
	// count (single-core peak for 1 thread, chip peak otherwise).
	PercentOfPeak float64
}

// Predict evaluates the calibrated ARMv8 performance model (DESIGN.md §5)
// for an implementation on a platform. transB selects the NT data layout;
// elemBytes is 4 or 8; warm models operands pre-resident in cache.
func Predict(impl Implementation, p *Platform, mode Mode, m, n, k, elemBytes, threads int, warm bool) (Prediction, error) {
	if elemBytes != 4 && elemBytes != 8 {
		return Prediction{}, fmt.Errorf("libshalom: element size %d not supported", elemBytes)
	}
	if m <= 0 || n <= 0 || k <= 0 {
		return Prediction{}, fmt.Errorf("libshalom: non-positive dimensions %dx%dx%d", m, n, k)
	}
	r := perfsim.Run(impl, p, perfsim.Workload{
		M: m, N: n, K: k, ElemBytes: elemBytes,
		TransA: mode.TransA(), TransB: mode.TransB(),
		Threads: threads, Warm: warm,
	})
	peak := p.PeakCoreGFLOPS(elemBytes)
	if threads > 1 {
		peak = p.PeakGFLOPS(elemBytes)
	}
	return Prediction{Seconds: r.Seconds, GFLOPS: r.GFLOPS, PercentOfPeak: 100 * r.GFLOPS / peak}, nil
}
