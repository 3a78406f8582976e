// Package pack provides the data-packing substrate: the linear-buffer
// packing routines the baseline drivers use and the runtime packing
// decision rules of §4. LibShalom's drivers (internal/core) call the
// predicates to decide whether to pack at all. The ISA programs fold the
// packing into the micro-kernel (§5.3); on the host, the driver fills one
// kc×nc panel per block in the k-contiguous columns the Go kernels read,
// from pooled buffers (internal/kernels PackPanel and PackPanelNT), and
// gathers the TN/TT A block with PackATransposed. The baseline drivers
// (internal/baselines) use the sequential row-major whole-panel routines
// here, which is the behaviour the paper contrasts against.
package pack

import "libshalom/internal/kernels"

// Strategy describes what a driver decided to do about one operand.
type Strategy int

const (
	// NoPack: the operand is consumed in place (cache-friendly access).
	NoPack Strategy = iota
	// PackOverlap: the operand is packed inside the micro-kernel,
	// overlapped with FMA computation (§5.3, LibShalom only). The ISA
	// programs and the timing model do so; the host driver fills one panel
	// per block for the Go kernels instead (internal/core gemmST).
	PackOverlap
	// PackSequential: the operand is packed in a separate pass before the
	// kernel runs (conventional BLAS behaviour, §2.2).
	PackSequential
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case NoPack:
		return "none"
	case PackOverlap:
		return "overlap"
	default:
		return "sequential"
	}
}

// Depth is the packing lookahead t of §5.3.2: how many nr-slivers ahead of
// the current micro-kernel iteration get packed. The paper sets t=0 for
// small GEMMs (pack only what the current iteration needs; the prefetcher
// covers the rest once B is LLC-resident, §5.3.1) and t=1 for irregular-
// shaped GEMMs whose B exceeds the LLC.
type Depth int

const (
	// DepthCurrent packs only the current sliver (t = 0).
	DepthCurrent Depth = 0
	// DepthAhead additionally packs the next iteration's sliver (t = 1).
	DepthAhead Depth = 1
)

// ShouldPackBNN is the NN-mode decision of §4.2: pack B only when it exceeds
// the L1 data cache; otherwise every operand is consumed in place. sizeB is
// the operand footprint in bytes.
func ShouldPackBNN(sizeBBytes, l1Bytes int) Strategy {
	if sizeBBytes <= l1Bytes {
		return NoPack
	}
	return PackOverlap
}

// ShouldPackBNT is the NT-mode decision of §4.3: B is always packed because
// its elements cannot be walked along N with aligned vector loads; the
// packing is overlapped with computation.
func ShouldPackBNT() Strategy { return PackOverlap }

// DepthFor implements §5.3.2's t selection: lookahead packing only pays off
// when B cannot live in the LLC (irregular-shaped inputs).
func DepthFor(sizeBBytes, llcBytes int) Depth {
	if sizeBBytes > llcBytes {
		return DepthAhead
	}
	return DepthCurrent
}

// PackB copies the kc×nc block of B starting at (k0, j0) into dst as a
// dense row-major kc×nc buffer (ldb is B's stride). This is the sequential
// whole-panel packing conventional libraries always run (Fig 1 step L2).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackB[T kernels.Float](dst []T, b []T, ldb, k0, j0, kc, nc int) {
	for k := 0; k < kc; k++ {
		src := b[(k0+k)*ldb+j0 : (k0+k)*ldb+j0+nc]
		copy(dst[k*nc:k*nc+nc], src)
	}
}

// PackBF32 is PackB for FP32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBF32(dst []float32, b []float32, ldb, k0, j0, kc, nc int) {
	PackB(dst, b, ldb, k0, j0, kc, nc)
}

// PackBF64 is PackB for FP64.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBF64(dst []float64, b []float64, ldb, k0, j0, kc, nc int) {
	PackB(dst, b, ldb, k0, j0, kc, nc)
}

// PackBTransposed packs a kc×nc block of the logical operand B = Bt^T,
// where bt is stored N×K row-major (the NT-mode input): dst[k*nc+j] =
// bt[(j0+j)*ldbt + k0+k]. This is the transpose gather the NT packing
// micro-kernel performs with vector loads plus scatter stores (Fig 5);
// baselines run it as a standalone pass.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBTransposed[T kernels.Float](dst []T, bt []T, ldbt, k0, j0, kc, nc int) {
	for j := 0; j < nc; j++ {
		src := bt[(j0+j)*ldbt+k0:]
		for k := 0; k < kc; k++ {
			dst[k*nc+j] = src[k]
		}
	}
}

// PackBTransposedF32 is PackBTransposed for FP32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBTransposedF32(dst []float32, bt []float32, ldbt, k0, j0, kc, nc int) {
	PackBTransposed(dst, bt, ldbt, k0, j0, kc, nc)
}

// PackBTransposedF64 is PackBTransposed for FP64.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBTransposedF64(dst []float64, bt []float64, ldbt, k0, j0, kc, nc int) {
	PackBTransposed(dst, bt, ldbt, k0, j0, kc, nc)
}

// PackA packs the mc×kc block of A starting at (i0, k0) into dst as a
// dense row-major mc×kc buffer (lda is A's stride). The packed layout keeps
// each row's K elements contiguous, which is what the 7×12 main kernel's
// A-vector loads require (Fig 3).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackA[T kernels.Float](dst []T, a []T, lda, i0, k0, mc, kc int) {
	for i := 0; i < mc; i++ {
		src := a[(i0+i)*lda+k0 : (i0+i)*lda+k0+kc]
		copy(dst[i*kc:i*kc+kc], src)
	}
}

// PackATransposed packs an mc×kc block of the logical operand A = At^T (at
// stored K×M row-major, the TN-mode input) into dense row-major mc×kc:
// dst[i*kc+k] = at[(k0+k)*ldat + i0+i]. §4.3: TN packs A with the NT-mode
// strategy.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackATransposed[T kernels.Float](dst []T, at []T, ldat, i0, k0, mc, kc int) {
	for k := 0; k < kc; k++ {
		src := at[(k0+k)*ldat+i0:]
		for i := 0; i < mc; i++ {
			dst[i*kc+k] = src[i]
		}
	}
}
