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
// their row and column remainders. When the host driver packs B, it fills
// one kc×nc panel per block in k-contiguous columns, B(k, j) = bp[j*kc+k]:
// PackPanel transposes a row-major B a few whole rows at a time, and
// PackPanelNT copies the rows of a stored-transposed B, which are already
// k-contiguous. Every tile of the panel then runs MicroNT on its nr-column
// sliver (MicroPacked): each 4×2 block reads two B columns, and MicroNT
// indexes every stream it reads by k alone, so the compiler proves its k
// loop in bounds. The layout is written and read only on the host; the ISA
// programs keep the §5.3 packing micro-kernels, which fold the packing
// loads and stores of a row-major Bc into the FMA stream.
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

// panelRows is how many rows of a row-major B PackPanel transposes per pass
// along n. Each pass reads panelRows sequential streams and writes
// panelRows contiguous elements of every column; the pass is written out
// for four rows. On a warm f32 431×300 panel of a B 2048 wide (2-vCPU
// Xeon, go1.24.0), one row per pass took 0.53 ns per element, two rows
// 0.38–0.40, four rows 0.38–0.39 and eight 0.45; the NT row copy took
// 0.11.
const panelRows = 4

// PackPanel packs the kc×nc block of a row-major B, B(k, j) = b[k*ldb+j],
// into bp as nc k-contiguous columns, B(k, j) = bp[j*kc+k], the layout
// MicroPacked reads: the nr-column sliver at column j0 starts at
// bp[j0*kc]. It walks panelRows whole rows of B at a time along n, so it
// reads every row of the block once and in order. bp must hold at least
// kc*nc elements; the rest is left untouched.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackPanel[T Float](kc, nc int, b []T, ldb int, bp []T) {
	k := 0
	for ; k+panelRows <= kc; k += panelRows {
		r0 := b[k*ldb:][:nc]
		r1 := b[(k+1)*ldb:][:nc]
		r2 := b[(k+2)*ldb:][:nc]
		r3 := b[(k+3)*ldb:][:nc]
		off := k
		for j, v := range r0 {
			// Stored by index: a four-element subslice of bp per column
			// costs a slice mask, and took 0.46 ns per element on the
			// panel above.
			bp[off+3] = r3[j]
			bp[off] = v
			bp[off+1] = r1[j]
			bp[off+2] = r2[j]
			off += kc
		}
	}
	for ; k < kc; k++ {
		off := k
		for _, v := range b[k*ldb:][:nc] {
			bp[off] = v
			off += kc
		}
	}
}

// PackPanelNT packs the kc×nc block of a stored-transposed B, B(k, j) =
// bT[j*ldbT+k], into bp as nc k-contiguous columns, B(k, j) = bp[j*kc+k]:
// each column is one copy of a row of bT. bp must hold at least kc*nc
// elements; the rest is left untouched.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackPanelNT[T Float](kc, nc int, bT []T, ldbT int, bp []T) {
	for j := 0; j < nc; j++ {
		copy(bp[j*kc:][:kc], bT[j*ldbT:][:kc])
	}
}

// MicroPacked computes an mr×nr tile of a panel from the nr-column B sliver
// at the head of bc, packed kc deep by PackPanel or PackPanelNT. The
// sliver's columns are k-contiguous, the layout MicroNT reads with ldbT =
// kc, so every stream the blocks read is indexed by k alone.
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
