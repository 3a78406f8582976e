// Package kernels contains every micro-kernel of the reproduction, in two
// synchronized forms:
//
//   - portable Go compute kernels (this file and ref.go), each written once
//     for both precisions, used by the real GEMM drivers in internal/core
//     and internal/baselines, and
//   - virtual-NEON ISA programs (main_isa.go, ntpack_isa.go, edge_isa.go)
//     that express the paper's register-level designs — the 7×12 / 7×6 main
//     micro-kernel (Alg 2), the packing micro-kernels that fold packing
//     loads/stores into the FMA stream (Fig 4/5, Alg 3), and the batch- vs
//     interleaved-scheduled edge kernels of Fig 6 — for the timing model and
//     for functional cross-validation.
//
// Tests assert that for identical tiles the Go kernels, the ISA programs
// executed by internal/vexec, and the naive reference in internal/mat all
// agree.
package kernels

import "unsafe"

// Float constrains the compute kernels, the packing routines and the
// drivers built on them to the two GEMM precisions. The precisions differ
// only in the register tile Eq. 1–2 solve for them (7×12 for FP32, 7×6 for
// FP64), which the drivers pass in as mr×nr.
type Float interface {
	~float32 | ~float64
}

// ElemBytes is the size in bytes of one T element: 4 or 8.
func ElemBytes[T Float]() int {
	var x T
	return int(unsafe.Sizeof(x))
}

// Micro computes the mr×nr tile
//
//	c[i*ldc+j] = alpha * Σ_k a[i*lda+k]·b[k*ldb+j] + beta*c[i*ldc+j]
//
// for 0 ≤ i < mr, 0 ≤ j < nr, 0 ≤ k < kc. Both operands are addressed
// row-major through explicit leading dimensions, which covers every operand
// layout the drivers use: an unpacked A sliver (lda = the matrix stride), a
// packed A sliver (lda = kc), an unpacked B block (ldb = the matrix stride)
// and the packed linear buffer Bc (ldb = nr). beta == 0 overwrites C without
// reading it. Accumulation is performed in T, k-innermost, matching the
// lane-wise semantics of the virtual-NEON kernels; the fixed-shape paths
// sum each element in the same k order, so every path gives the same bits.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func Micro[T Float](mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	switch {
	case mr == 7 && nr == 12:
		micro7x12(kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	case mr == 7 && nr == 6:
		micro7x6(kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	for i := 0; i < mr; i++ {
		ar := a[i*lda:]
		for j := 0; j < nr; j++ {
			var acc T
			for k := 0; k < kc; k++ {
				acc += ar[k] * b[k*ldb+j]
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * acc
			} else {
				c[i*ldc+j] = alpha*acc + beta*c[i*ldc+j]
			}
		}
	}
}

// micro7x12 is the FP32 main micro-kernel's shape (§5.2.3: mr=7, nr=12).
// Twelve-wide accumulator rows are kept in three 4-lane blocks, mirroring
// the three 128-bit B registers (V7–V9) of the assembly design.
func micro7x12[T Float](kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	var acc [7][12]T
	a0, a1, a2 := a[0*lda:], a[1*lda:], a[2*lda:]
	a3, a4, a5 := a[3*lda:], a[4*lda:], a[5*lda:]
	a6 := a[6*lda:]
	for k := 0; k < kc; k++ {
		br := b[k*ldb : k*ldb+12]
		av := [7]T{a0[k], a1[k], a2[k], a3[k], a4[k], a5[k], a6[k]}
		for i := 0; i < 7; i++ {
			s := av[i]
			row := &acc[i]
			for j := 0; j < 12; j++ {
				row[j] += s * br[j]
			}
		}
	}
	for i := 0; i < 7; i++ {
		cr := c[i*ldc : i*ldc+12]
		if beta == 0 {
			for j := 0; j < 12; j++ {
				cr[j] = alpha * acc[i][j]
			}
		} else {
			for j := 0; j < 12; j++ {
				cr[j] = alpha*acc[i][j] + beta*cr[j]
			}
		}
	}
}

// micro7x6 is the FP64 main micro-kernel's shape (mr=7, nr=6: j=2 lanes
// per 128-bit register).
func micro7x6[T Float](kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	var acc [7][6]T
	for k := 0; k < kc; k++ {
		br := b[k*ldb : k*ldb+6]
		for i := 0; i < 7; i++ {
			s := a[i*lda+k]
			row := &acc[i]
			for j := 0; j < 6; j++ {
				row[j] += s * br[j]
			}
		}
	}
	for i := 0; i < 7; i++ {
		cr := c[i*ldc : i*ldc+6]
		if beta == 0 {
			for j := 0; j < 6; j++ {
				cr[j] = alpha * acc[i][j]
			}
		} else {
			for j := 0; j < 6; j++ {
				cr[j] = alpha*acc[i][j] + beta*cr[j]
			}
		}
	}
}

// SGEMMMicro is Micro for FP32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicro(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	Micro(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMMMicro is Micro for FP64.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func DGEMMMicro(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	Micro(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// MicroPackB behaves like Micro for an mr×nr tile reading B from its
// strided source, and simultaneously packs the kc×nr B sliver into the
// linear buffer bc (row-major, leading dimension nrTotal, starting at column
// jOff). This is the Go counterpart of the NN-mode packing micro-kernel
// (Alg 1 lines 6–8): the first sliver of every mc-panel packs B while it
// updates C, and subsequent slivers reuse bc.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroPackB[T Float](mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int) {
	for k := 0; k < kc; k++ {
		copy(bc[k*nrTotal+jOff:k*nrTotal+jOff+nr], b[k*ldb:k*ldb+nr])
	}
	Micro(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// MicroNT computes an mr×nr tile under the NT data layout: bT is the
// transposed operand as stored (N×K row-major), so element B(k, j) of the
// logical K×N operand is bT[j*ldbT + k]. Used by the NT-mode inner-product
// packing kernel and by NT edge tiles that bypass the packed buffer.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroNT[T Float](mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int) {
	for i := 0; i < mr; i++ {
		ar := a[i*lda:]
		for j := 0; j < nr; j++ {
			br := bT[j*ldbT:]
			var acc T
			for k := 0; k < kc; k++ {
				acc += ar[k] * br[k]
			}
			if beta == 0 {
				c[i*ldc+j] = alpha * acc
			} else {
				c[i*ldc+j] = alpha*acc + beta*c[i*ldc+j]
			}
		}
	}
}

// MicroNTPack is the Go counterpart of the NT packing micro-kernel (Fig 5 /
// Alg 3): it updates an mr×nr C tile from A and the stored-transposed bT
// using the inner-product formulation, and scatters the same kc×nr sliver
// of B into the linear buffer bc (row-major kc×nrTotal at column jOff) so
// later tiles can run the outer-product main kernel.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroNTPack[T Float](mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int) {
	for j := 0; j < nr; j++ {
		br := bT[j*ldbT:]
		for k := 0; k < kc; k++ {
			bc[k*nrTotal+jOff+j] = br[k]
		}
	}
	MicroNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, c, ldc)
}

// ScaleRows scales the mr×nr tile of C by beta in place (used when a
// driver must apply beta to tiles no kernel will touch, e.g. zero-K edge).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func ScaleRows[T Float](mr, nr int, beta T, c []T, ldc int) {
	for i := 0; i < mr; i++ {
		row := c[i*ldc : i*ldc+nr]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}
