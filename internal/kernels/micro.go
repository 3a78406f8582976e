// Package kernels contains every micro-kernel of the reproduction, in two
// synchronized forms:
//
//   - portable Go compute kernels (this file, blocks_gen.go and ref.go), each
//     written once for both precisions, used by the real GEMM drivers in
//     internal/core and internal/baselines, and
//   - virtual-NEON ISA programs (main_isa.go, ntpack_isa.go, edge_isa.go)
//     that express the paper's register-level designs — the 7×12 / 7×6 main
//     micro-kernel (Alg 2), the packing micro-kernels that fold packing
//     loads/stores into the FMA stream (Fig 4/5, Alg 3), and the batch- vs
//     interleaved-scheduled edge kernels of Fig 6 — for the timing model and
//     for functional cross-validation.
//
// The Go kernels take the drivers' NEON tile (mr×nr from Eq. 1–2) and run it
// as register blocks sized by Eq. 1 for the machine that runs them: Micro
// and MicroNT split each tile into 4×2 blocks of scalar accumulators plus
// their row and column remainders. The Go packing kernels, MicroPackB and
// MicroNTPack, leave the kc×nr B sliver in Bc as nr k-contiguous columns,
// Bc(k, j) = bc[j*kc+k]: each 4×2 block reads two B columns, and MicroNT
// indexes every stream it reads by k alone, so the compiler proves its k
// loop in bounds. Every tile of a packed panel, the first included, runs
// MicroNT on that sliver (MicroPacked). The layout is written and read only
// in this package; the ISA programs keep the NEON kernels' row-major Bc.
// The blocks and both sweeps are generated from one template by the
// genblocks program into blocks_gen.go; after editing the template,
// regenerate with
//
//	go generate ./internal/kernels
//
// and commit the result (a test fails when the file is stale).
//
// Tests assert that for identical tiles the Go kernels, the ISA programs
// executed by internal/vexec, and the naive reference in internal/mat all
// agree.
package kernels

import "unsafe"

//go:generate go run ./genblocks

// Float constrains the compute kernels, the packing routines and the
// drivers built on them to the two GEMM precisions. The precisions differ
// only in the register tile Eq. 1–2 solve for them (7×12 for FP32, 7×6 for
// FP64), which the drivers pass in as mr×nr; the Go kernels run every tile
// through the same register blocks.
type Float interface {
	~float32 | ~float64
}

// ElemBytes is the size in bytes of one T element: 4 or 8.
func ElemBytes[T Float]() int {
	var x T
	return int(unsafe.Sizeof(x))
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

// MicroPackB is the Go counterpart of the NN-mode packing micro-kernel
// (Alg 1 lines 6–8, Fig 4): it packs the kc×nr B sliver, read from its
// strided source, into bc as nr k-contiguous columns, B(k, j) = bc[j*kc+k],
// and computes the mr×nr C tile from the sliver it has packed, as every
// later tile of the panel does (MicroPacked). The NEON kernel folds the
// packing loads and stores into its FMA stream; a host block reads only two
// B columns per pass, so a first row block that packed as it computed would
// walk the strided sliver nr/2 times, and on irregular shapes (M 32–64, N
// 2048–4096, 2-vCPU Xeon) it did not beat this copy, which reads each B row
// once. bc must hold at least nr*kc elements; the rest is left untouched.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroPackB[T Float](mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int, bc []T) {
	for k := 0; k < kc; k++ {
		for j, v := range b[k*ldb:][:nr] {
			bc[j*kc+k] = v
		}
	}
	MicroPacked(mr, nr, kc, alpha, a, lda, bc, beta, c, ldc)
}

// MicroNTPack is the Go counterpart of the NT packing micro-kernel (Fig 5 /
// Alg 3): it packs the kc×nr sliver of the stored-transposed bT into bc as
// nr k-contiguous columns, B(k, j) = bc[j*kc+k], and computes the mr×nr C
// tile from that sliver, as every later tile of the panel does
// (MicroPacked). The rows of bT are already k-contiguous, so each column is
// one copy of a row. bc must hold at least nr*kc elements; the rest is left
// untouched.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroNTPack[T Float](mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int, bc []T) {
	for j := 0; j < nr; j++ {
		copy(bc[j*kc:][:kc], bT[j*ldbT:][:kc])
	}
	MicroPacked(mr, nr, kc, alpha, a, lda, bc, beta, c, ldc)
}

// MicroPacked computes an mr×nr tile of a panel from the B sliver that
// MicroPackB or MicroNTPack packed into bc. The sliver's columns are
// k-contiguous, the layout MicroNT reads with ldbT = kc, so every stream
// the blocks read is indexed by k alone.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func MicroPacked[T Float](mr, nr, kc int, alpha T, a []T, lda int, bc []T, beta T, c []T, ldc int) {
	MicroNT(mr, nr, kc, alpha, a, lda, bc, kc, beta, c, ldc)
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
