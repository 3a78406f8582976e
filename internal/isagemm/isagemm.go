// Package isagemm executes a complete small GEMM entirely through the
// virtual-NEON ISA: the driver tiles the problem exactly like
// internal/core, but every floating-point operation — the β·C pre-scaling,
// the α folding and all the rank-1 updates — happens inside ISA programs
// run by the functional executor. It is the reproduction's end-to-end
// "assembly path": where internal/kernels validates each micro-kernel in
// isolation, this package validates that they compose across tiles and
// K-blocks with the accumulate semantics the real library relies on.
//
// The package targets the small-GEMM regime (that is what the paper
// executes per-call in assembly); the portable Go driver in internal/core
// remains the production path.
package isagemm

import (
	"fmt"

	"libshalom/internal/analytic"
	"libshalom/internal/isa"
	"libshalom/internal/kernels"
	"libshalom/internal/vexec"
)

// SGEMM computes C = alpha·A·B + beta·C (NN layout, FP32) through ISA
// programs only. Operands are row-major with explicit leading dimensions.
func SGEMM(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("isagemm: negative dimension")
	}
	if m == 0 || n == 0 {
		return nil
	}
	if lda < max(1, k) || ldb < max(1, n) || ldc < max(1, n) {
		return fmt.Errorf("isagemm: leading dimension too small")
	}
	const lanes = 4
	tile := analytic.SolveForElem(4)
	mr, nr := tile.MR, tile.NR

	// β·C through the ISA scale program, one row-tile at a time.
	if beta != 1 {
		if err := scaleRows(m, n, beta, c, ldc); err != nil {
			return err
		}
	}
	if alpha == 0 || k == 0 {
		return nil
	}

	// Fold α into a scaled copy of A (again through the ISA).
	aEff, ldaEff := a, lda
	if alpha != 1 {
		scaled := make([]float32, m*k)
		for i := 0; i < m; i++ {
			copy(scaled[i*k:(i+1)*k], a[i*lda:i*lda+k])
		}
		if err := scaleRows(m, k, alpha, scaled, k); err != nil {
			return err
		}
		aEff, ldaEff = scaled, k
	}

	// One K block covering the whole (padded) K extent: zero padding adds
	// zero to every accumulator, so the padded program computes the exact
	// sum.
	kcp := roundUp(k, lanes)

	for i := 0; i < m; i += mr {
		mrb := min(mr, m-i)
		// Padded A sliver: mrb × kcp, row-major.
		aPad := make([]float32, mrb*kcp)
		for r := 0; r < mrb; r++ {
			copy(aPad[r*kcp:r*kcp+k], aEff[(i+r)*ldaEff:(i+r)*ldaEff+k])
		}
		for j := 0; j < n; j += nr {
			nrb := min(nr, n-j)
			nrp := roundUp(nrb, lanes)
			// Padded B sliver: kcp × nrp.
			bPad := make([]float32, kcp*nrp)
			for r := 0; r < k; r++ {
				copy(bPad[r*nrp:r*nrp+nrb], b[r*ldb+j:r*ldb+j+nrb])
			}
			// Padded C tile, loaded with the (β-scaled) current values.
			cPad := make([]float32, mrb*nrp)
			for r := 0; r < mrb; r++ {
				copy(cPad[r*nrp:r*nrp+nrb], c[(i+r)*ldc+j:(i+r)*ldc+j+nrb])
			}
			prog := kernels.BuildMain(kernels.MainSpec{
				Elem: 4, MR: mrb, NR: nrp, KC: kcp,
				LDA: kcp, LDB: nrp, LDC: nrp,
				Accumulate: true, Schedule: kernels.Pipelined,
			})
			if err := vexec.RunF32(prog, aPad, bPad, cPad); err != nil {
				return fmt.Errorf("isagemm: tile (%d,%d): %w", i, j, err)
			}
			for r := 0; r < mrb; r++ {
				copy(c[(i+r)*ldc+j:(i+r)*ldc+j+nrb], cPad[r*nrp:r*nrp+nrb])
			}
		}
	}
	return nil
}

// scaleRows multiplies the m×n block of c by s using ISA programs: each
// row segment is loaded into vector registers, scaled by the immediate and
// stored back. Tail elements shorter than a vector go through a padded
// scratch row.
func scaleRows(m, n int, s float32, c []float32, ldc int) error {
	const lanes = 4
	np := roundUp(n, lanes)
	b := isa.NewBuilder(fmt.Sprintf("scale_row_n%d", np), 4)
	row := b.Stream("row", isa.StreamC, np, true)
	for off := 0; off < np; off += lanes {
		reg := (off / lanes) % 30
		b.LdVec(reg, row, off)
		b.FmulScalarAll(reg, float64(s))
		b.StVec(reg, row, off)
	}
	prog := b.MustBuild()
	scratch := make([]float32, np)
	for i := 0; i < m; i++ {
		seg := c[i*ldc : i*ldc+n]
		if n == np {
			if err := vexec.RunF32(prog, seg); err != nil {
				return err
			}
			continue
		}
		copy(scratch, seg)
		if err := vexec.RunF32(prog, scratch); err != nil {
			return err
		}
		copy(seg, scratch[:n])
	}
	return nil
}

func roundUp(a, b int) int {
	if a == 0 {
		return b
	}
	return (a + b - 1) / b * b
}
