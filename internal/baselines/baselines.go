// Package baselines implements strategy-faithful stand-ins for the five
// libraries the paper compares against (§7.3): OpenBLAS, BLIS, ARMPL,
// BLASFEO and LIBXSMM. Each is a real, runnable GEMM built on the classic
// Goto loop nest (Fig 1) with that library's published packing, edge-case
// and parallelization strategy:
//
//   - OpenBLAS: always packs both operands in separate sequential passes,
//     8×4 ARMv8 micro-kernel with batch-scheduled loads (Fig 6a), dedicated
//     (smaller-tile) edge routines, one-dimensional M-split parallelism.
//   - BLIS: always packs both operands, 8×12 micro-kernel, pads edge tiles
//     with zeros up to the kernel size (§2.2), one-dimensional N-split
//     parallelism.
//   - ARMPL: OpenBLAS-like data flow with an 8×8 kernel and a fixed
//     near-square thread grid that ignores the matrix shape.
//   - BLASFEO: converts the whole operands to its packed (panel-major)
//     format up front, 8×8 kernel, single-threaded only (§7.4 excludes it
//     from parallel experiments).
//   - LIBXSMM: for (M·N·K)^(1/3) ≤ 64 JIT-generates a direct kernel that
//     consumes the operands without packing; larger inputs fall back to the
//     OpenBLAS-style path (§9: it is ineffective outside its design scope).
//
// These implementations are functionally exact GEMMs (property-tested
// against the reference); their performance characters — what the paper's
// figures measure — are reproduced by the matching personas in
// internal/perfsim, driven by the same strategy descriptors.
package baselines

import (
	"math"

	"libshalom/internal/analytic"
	"libshalom/internal/core"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
)

// Lib identifies one baseline library persona.
type Lib int

const (
	// OpenBLAS models the OpenBLAS ARMv8 back-end.
	OpenBLAS Lib = iota
	// BLIS models the BLIS framework's ARMv8 configuration.
	BLIS
	// ARMPL models the ARM Performance Libraries.
	ARMPL
	// BLASFEO models BLASFEO's panel-major small-matrix path.
	BLASFEO
	// LIBXSMM models LIBXSMM's JIT small-GEMM path.
	LIBXSMM
)

// All returns every baseline in the paper's listing order.
func All() []Lib { return []Lib{BLIS, OpenBLAS, ARMPL, LIBXSMM, BLASFEO} }

// ParallelScheme describes how a library distributes GEMM across threads.
type ParallelScheme int

const (
	// SchemeNone: no multi-threading (BLASFEO, §7.4).
	SchemeNone ParallelScheme = iota
	// SchemeMSplit: one-dimensional split of the M dimension.
	SchemeMSplit
	// SchemeNSplit: one-dimensional split of the N dimension.
	SchemeNSplit
	// SchemeGrid: fixed near-square two-dimensional grid, shape-oblivious.
	SchemeGrid
	// SchemeGridM: a shape-oblivious grid that leans toward the M
	// dimension (BLIS's auto-factorization strongly favors the ic loop),
	// roughly TM = 2·√T. §3.2's criticism — the partition ignores the
	// workload shape and manufactures edge cases — applies at full force
	// for small-M irregular inputs.
	SchemeGridM
)

// EdgePolicy describes how a library processes partial tiles (§2.2).
type EdgePolicy int

const (
	// EdgeDedicated uses separate smaller-tile routines (OpenBLAS style).
	EdgeDedicated EdgePolicy = iota
	// EdgePad zero-pads partial tiles up to the full kernel size (BLIS
	// style), spending full-tile flops on partial results.
	EdgePad
)

// Spec is the strategy descriptor of one baseline; internal/perfsim reads
// the same descriptor to build the library's timing persona.
type Spec struct {
	Name     string
	MR, NR   int
	Edge     EdgePolicy
	Parallel ParallelScheme
	// SmallDirectCube is LIBXSMM's design limit: inputs with
	// (M·N·K)^(1/3) ≤ SmallDirectCube bypass packing entirely via a JIT
	// kernel. Zero disables the direct path.
	SmallDirectCube int
	// PanelMajorUpfront marks BLASFEO's one-shot conversion of whole
	// operands to the packed format before any compute.
	PanelMajorUpfront bool
	// KernelEfficiency scales the persona's steady-state kernel quality in
	// the timing model (ARMPL's hand tuning vs generic kernels); the
	// functional path ignores it.
	KernelEfficiency float64
}

// SpecFor returns the strategy descriptor of a library.
func SpecFor(lib Lib) Spec {
	switch lib {
	case OpenBLAS:
		return Spec{Name: "OpenBLAS", MR: 8, NR: 4, Edge: EdgeDedicated, Parallel: SchemeMSplit, KernelEfficiency: 0.88}
	case BLIS:
		return Spec{Name: "BLIS", MR: 8, NR: 12, Edge: EdgePad, Parallel: SchemeGrid, KernelEfficiency: 0.88}
	case ARMPL:
		return Spec{Name: "ARMPL", MR: 8, NR: 8, Edge: EdgeDedicated, Parallel: SchemeGridM, KernelEfficiency: 0.90}
	case BLASFEO:
		return Spec{Name: "BLASFEO", MR: 8, NR: 8, Edge: EdgeDedicated, Parallel: SchemeNone, PanelMajorUpfront: true, KernelEfficiency: 1.0}
	case LIBXSMM:
		return Spec{Name: "LIBXSMM", MR: 8, NR: 4, Edge: EdgeDedicated, Parallel: SchemeNone, SmallDirectCube: 64, KernelEfficiency: 1.0}
	}
	panic("baselines: unknown library")
}

// String returns the library name.
func (l Lib) String() string { return SpecFor(l).Name }

// SGEMM runs the baseline's FP32 GEMM: C = α·op(A)·op(B) + β·C.
func SGEMM(lib Lib, plat *platform.Platform, threads int, mode core.Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return blGemm(lib, plat, threads, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM runs the baseline's FP64 GEMM.
func DGEMM(lib Lib, plat *platform.Platform, threads int, mode core.Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return blGemm(lib, plat, threads, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func blGemm[T kernels.Float](lib Lib, plat *platform.Platform, threads int, mode core.Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	if err := core.CheckArgs(mode, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	if alpha == 0 || k == 0 {
		if beta != 1 {
			kernels.ScaleRows(m, n, beta, c, ldc)
		}
		return nil
	}
	if plat == nil {
		plat = platform.KP920()
	}
	spec := SpecFor(lib)
	if spec.Parallel == SchemeNone {
		threads = 1
	}
	if threads > 1 {
		blocks := splitFor(spec.Parallel, m, n, threads, spec.MR, spec.NR)
		if len(blocks) > 1 {
			pool := parallel.NewPool(threads)
			defer pool.Close()
			tasks := make([]func(int), len(blocks))
			for i, blk := range blocks {
				tasks[i] = func(int) {
					aOff := blk.I0 * lda
					if mode.TransA() {
						aOff = blk.I0
					}
					bOff := blk.J0
					if mode.TransB() {
						bOff = blk.J0 * ldb
					}
					gotoGemm(spec, plat, mode, blk.M, blk.N, k, alpha, a[aOff:], lda, b[bOff:], ldb, beta, c[blk.I0*ldc+blk.J0:], ldc)
				}
			}
			return pool.RunWorkerCfg(parallel.RunConfig{}, tasks)
		}
	}
	gotoGemm(spec, plat, mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	return nil
}

// splitFor produces the library's thread decomposition of C.
func splitFor(s ParallelScheme, m, n, threads, mr, nr int) []parallel.Block {
	switch s {
	case SchemeMSplit:
		return parallel.Blocks(m, n, analytic.Partition{TM: threads, TN: 1}, mr, nr)
	case SchemeNSplit:
		return parallel.Blocks(m, n, analytic.Partition{TM: 1, TN: threads}, mr, nr)
	case SchemeGrid:
		// Near-square factorization of the thread count, oblivious to the
		// C shape (the behaviour §3.2 criticizes).
		tm := int(math.Sqrt(float64(threads)))
		for threads%tm != 0 {
			tm--
		}
		return parallel.Blocks(m, n, analytic.Partition{TM: tm, TN: threads / tm}, mr, nr)
	case SchemeGridM:
		p := GridMPartition(threads)
		return parallel.Blocks(m, n, p, mr, nr)
	default:
		return []parallel.Block{{I0: 0, J0: 0, M: m, N: n}}
	}
}

// gotoGemm is the conventional Goto loop nest (Fig 1): jj → kk → [pack Bc]
// → ii → [pack Ac] → GEBP, with both operands always packed sequentially.
// LIBXSMM's small-cube direct path bypasses it entirely.
func gotoGemm[T kernels.Float](spec Spec, plat *platform.Platform, mode core.Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if spec.SmallDirectCube > 0 && cubeRoot(m, n, k) <= spec.SmallDirectCube && !mode.TransA() && !mode.TransB() {
		directGemm(spec, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	blk := analytic.BlockingFor(plat, kernels.ElemBytes[T]())
	mc, kc, nc := blk.MC, blk.KC, blk.NC

	bc := make([]T, kc*nc)
	ac := make([]T, mc*kc)
	var padC []T
	if spec.Edge == EdgePad {
		padC = make([]T, spec.MR*spec.NR)
	}

	for jj := 0; jj < n; jj += nc {
		ncb := min(nc, n-jj)
		for kk := 0; kk < k; kk += kc {
			kcb := min(kc, k-kk)
			betaEff := T(1)
			if kk == 0 {
				betaEff = beta
			}
			// Sequential pack of the kc×nc B panel (always; §3.2's first
			// missed opportunity).
			if mode.TransB() {
				pack.PackBTransposed(bc, b, ldb, kk, jj, kcb, ncb)
			} else {
				pack.PackB(bc, b, ldb, kk, jj, kcb, ncb)
			}
			for ii := 0; ii < m; ii += mc {
				mcb := min(mc, m-ii)
				// Sequential pack of the mc×kc A block.
				if mode.TransA() {
					pack.PackATransposed(ac, a, lda, ii, kk, mcb, kcb)
				} else {
					pack.PackA(ac, a, lda, ii, kk, mcb, kcb)
				}
				gebp(spec, mcb, ncb, kcb, alpha, ac, kcb, bc, ncb, betaEff, c[ii*ldc+jj:], ldc, padC)
			}
		}
	}
}

// gebp runs the block-times-panel kernel over packed operands.
func gebp[T kernels.Float](spec Spec, mc, nc, kc int, alpha T, ac []T, ldac int, bc []T, ldbc int, beta T, c []T, ldc int, padC []T) {
	mr, nr := spec.MR, spec.NR
	for j := 0; j < nc; j += nr {
		nrb := min(nr, nc-j)
		for i := 0; i < mc; i += mr {
			mrb := min(mr, mc-i)
			if spec.Edge == EdgePad && (mrb < mr || nrb < nr) {
				// BLIS-style: run the full-size kernel into a scratch tile
				// (the packed operands' tails read as zeros is emulated by
				// computing only the valid extent into scratch, then
				// copying) — the cost model charges full-tile flops.
				for x := range padC {
					padC[x] = 0
				}
				kernels.Micro(mrb, nrb, kc, alpha, ac[i*ldac:], ldac, bc[j:], ldbc, 0, padC, nr)
				for bi := 0; bi < mrb; bi++ {
					for bj := 0; bj < nrb; bj++ {
						if beta == 0 {
							c[(i+bi)*ldc+j+bj] = padC[bi*nr+bj]
						} else {
							c[(i+bi)*ldc+j+bj] = padC[bi*nr+bj] + beta*c[(i+bi)*ldc+j+bj]
						}
					}
				}
				continue
			}
			kernels.Micro(mrb, nrb, kc, alpha, ac[i*ldac:], ldac, bc[j:], ldbc, beta, c[i*ldc+j:], ldc)
		}
	}
}

// directGemm is LIBXSMM's JIT path: a single pass of unpacked micro-tiles.
func directGemm[T kernels.Float](spec Spec, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	mr, nr := spec.MR, spec.NR
	for i := 0; i < m; i += mr {
		mrb := min(mr, m-i)
		for j := 0; j < n; j += nr {
			nrb := min(nr, n-j)
			kernels.Micro(mrb, nrb, k, alpha, a[i*lda:], lda, b[j:], ldb, beta, c[i*ldc+j:], ldc)
		}
	}
}

// GridMPartition returns BLIS's M-leaning shape-oblivious factorization:
// TM is the divisor of T closest to 2·√T from below.
func GridMPartition(threads int) analytic.Partition {
	tm := int(2 * math.Sqrt(float64(threads)))
	if tm > threads {
		tm = threads
	}
	if tm < 1 {
		tm = 1
	}
	for threads%tm != 0 {
		tm--
	}
	return analytic.Partition{TM: tm, TN: threads / tm}
}

func cubeRoot(m, n, k int) int {
	return int(math.Cbrt(float64(m) * float64(n) * float64(k)))
}
