package kernels

import (
	"testing"

	"libshalom/internal/mat"
)

// refTile computes the mr×nr tile oracle in float64.
func refTile32(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) []float32 {
	out := make([]float32, mr*nr)
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			var acc float64
			for k := 0; k < kc; k++ {
				acc += float64(a[i*lda+k]) * float64(b[k*ldb+j])
			}
			v := float64(alpha) * acc
			if beta != 0 {
				v += float64(beta) * float64(c[i*ldc+j])
			}
			out[i*nr+j] = float32(v)
		}
	}
	return out
}

func fillRand32(n int, rng *mat.RNG) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

func fillRand64(n int, rng *mat.RNG) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64() - 0.5
	}
	return s
}

func TestSGEMMMicroMatchesRef(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, tc := range []struct{ mr, nr, kc, lda, ldb, ldc int }{
		{7, 12, 16, 16, 12, 12}, // FP32 main tile, packed-like strides
		{7, 12, 8, 20, 30, 40},  // FP32 main tile, loose strides
		{3, 5, 7, 9, 6, 8},      // edge tile: row and column remainders
		{1, 1, 1, 1, 1, 1},
		{8, 4, 12, 12, 4, 4},
	} {
		a := fillRand32(tc.mr*tc.lda, rng)
		b := fillRand32(tc.kc*tc.ldb, rng)
		c := fillRand32(tc.mr*tc.ldc, rng)
		for _, ab := range []struct{ alpha, beta float32 }{{1, 0}, {1, 1}, {2.5, -0.5}, {0, 2}} {
			cc := append([]float32(nil), c...)
			want := refTile32(tc.mr, tc.nr, tc.kc, ab.alpha, a, tc.lda, b, tc.ldb, ab.beta, cc, tc.ldc)
			SGEMMMicro(tc.mr, tc.nr, tc.kc, ab.alpha, a, tc.lda, b, tc.ldb, ab.beta, cc, tc.ldc)
			for i := 0; i < tc.mr; i++ {
				for j := 0; j < tc.nr; j++ {
					got, w := cc[i*tc.ldc+j], want[i*tc.nr+j]
					if diff := got - w; diff > 1e-4 || diff < -1e-4 {
						t.Fatalf("tile %dx%dx%d α=%v β=%v: C(%d,%d)=%v want %v", tc.mr, tc.nr, tc.kc, ab.alpha, ab.beta, i, j, got, w)
					}
				}
			}
		}
	}
}

func TestSGEMMMicroBetaZeroIgnoresGarbage(t *testing.T) {
	// C pre-filled with NaN-like garbage must be fully overwritten.
	a := []float32{1, 2}
	b := []float32{3, 4}
	c := []float32{9e30, 9e30}
	SGEMMMicro(1, 1, 2, 1, a, 2, b, 1, 0, c, 1)
	if c[0] != 11 {
		t.Fatalf("c[0] = %v, want 11", c[0])
	}
	if c[1] != 9e30 {
		t.Fatal("kernel wrote outside its tile")
	}
}

func TestDGEMMMicroMatchesRef(t *testing.T) {
	rng := mat.NewRNG(3)
	for _, tc := range []struct{ mr, nr, kc int }{{7, 6, 8}, {7, 6, 2}, {4, 3, 5}, {2, 6, 10}} {
		lda, ldb, ldc := tc.kc+2, tc.nr+1, tc.nr+3
		a := fillRand64(tc.mr*lda, rng)
		b := fillRand64(tc.kc*ldb, rng)
		c := fillRand64(tc.mr*ldc, rng)
		want := make([]float64, tc.mr*tc.nr)
		for i := 0; i < tc.mr; i++ {
			for j := 0; j < tc.nr; j++ {
				var acc float64
				for k := 0; k < tc.kc; k++ {
					acc += a[i*lda+k] * b[k*ldb+j]
				}
				want[i*tc.nr+j] = 2*acc - c[i*ldc+j]
			}
		}
		DGEMMMicro(tc.mr, tc.nr, tc.kc, 2, a, lda, b, ldb, -1, c, ldc)
		for i := 0; i < tc.mr; i++ {
			for j := 0; j < tc.nr; j++ {
				d := c[i*ldc+j] - want[i*tc.nr+j]
				if d > 1e-12 || d < -1e-12 {
					t.Fatalf("FP64 tile %dx%dx%d C(%d,%d)=%v want %v", tc.mr, tc.nr, tc.kc, i, j, c[i*ldc+j], want[i*tc.nr+j])
				}
			}
		}
	}
}

func TestPackBKernelsPackAndCompute(t *testing.T) {
	rng := mat.NewRNG(9)
	mr, nr, kc := 7, 12, 8
	a := fillRand32(mr*kc, rng)
	b := fillRand32(kc*40, rng)
	ldb := 40
	c := fillRand32(mr*nr, rng)
	cc := append([]float32(nil), c...)
	bc := make([]float32, kc*nr)
	PackPanel(kc, nr, b, ldb, bc)
	MicroPacked(mr, nr, kc, 1, a, kc, bc, 1, cc, nr)
	// Compute from the panel must match the plain kernel on B in place.
	SGEMMMicro(mr, nr, kc, 1, a, kc, b, ldb, 1, c, nr)
	for i := range c {
		if c[i] != cc[i] {
			t.Fatal("packed panel computed different C")
		}
	}
	// Packed layout: nr k-contiguous columns, bc[j*kc + k] == b[k*ldb + j].
	for k := 0; k < kc; k++ {
		for j := 0; j < nr; j++ {
			if bc[j*kc+k] != b[k*ldb+j] {
				t.Fatalf("Bc(%d,%d) misplaced", k, j)
			}
		}
	}
}

func TestNTKernelsMatchTransposedRef(t *testing.T) {
	rng := mat.NewRNG(12)
	mr, nr, kc := 7, 3, 8
	a := fillRand32(mr*kc, rng)
	bT := fillRand32(nr*kc, rng) // stored N×K
	c := make([]float32, mr*nr)
	MicroNT(mr, nr, kc, 1, a, kc, bT, kc, 0, c, nr)
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			var acc float32
			for k := 0; k < kc; k++ {
				acc += a[i*kc+k] * bT[j*kc+k]
			}
			d := c[i*nr+j] - acc
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("NT C(%d,%d)=%v want %v", i, j, c[i*nr+j], acc)
			}
		}
	}
}

// TestNTPackScatterLayout fills a 12-wide Bc with four 3-column calls, the
// NEON kernel's §5.3.2 schedule (“call the packing micro-kernel four times
// (12/3)”), and computes each 3-column group from what it packed. The host
// panel keeps Bc in k-contiguous columns, so column group jOff starts at
// bc[jOff*kc].
func TestNTPackScatterLayout(t *testing.T) {
	rng := mat.NewRNG(13)
	mr, nb, kc, nrTotal := 7, 3, 8, 12
	a := fillRand32(mr*kc, rng)
	c := make([]float32, mr*nrTotal)
	bc := make([]float32, kc*nrTotal)
	fullBT := fillRand32(nrTotal*kc, rng)
	for jOff := 0; jOff < nrTotal; jOff += nb {
		PackPanelNT(kc, nb, fullBT[jOff*kc:], kc, bc[jOff*kc:])
		MicroPacked(mr, nb, kc, 1, a, kc, bc[jOff*kc:], 0, c[jOff:], nrTotal)
	}
	// Bc must now hold B(k, j) at bc[j*kc+k].
	for k := 0; k < kc; k++ {
		for j := 0; j < nrTotal; j++ {
			if bc[j*kc+k] != fullBT[j*kc+k] {
				t.Fatalf("Bc(%d,%d) = %v, want B^T element %v", k, j, bc[j*kc+k], fullBT[j*kc+k])
			}
		}
	}
	// And the packed buffer must drive the whole panel to the same C.
	c2 := make([]float32, mr*nrTotal)
	MicroPacked(mr, nrTotal, kc, 1, a, kc, bc, 0, c2, nrTotal)
	for i := range c2 {
		d := c2[i] - c[i]
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("main kernel on packed Bc diverges at %d: %v vs %v", i, c2[i], c[i])
		}
	}
}

func TestDGEMMMicroNTPackParity(t *testing.T) {
	rng := mat.NewRNG(21)
	mr, nb, kc, nrTotal := 7, 3, 6, 6
	a := fillRand64(mr*kc, rng)
	bT := fillRand64(nrTotal*kc, rng)
	c := make([]float64, mr*nrTotal)
	bc := make([]float64, kc*nrTotal)
	for jOff := 0; jOff < nrTotal; jOff += nb {
		PackPanelNT(kc, nb, bT[jOff*kc:], kc, bc[jOff*kc:])
		MicroPacked(mr, nb, kc, 1, a, kc, bc[jOff*kc:], 0, c[jOff:], nrTotal)
	}
	c2 := make([]float64, mr*nrTotal)
	MicroPacked(mr, nrTotal, kc, 1, a, kc, bc, 0, c2, nrTotal)
	for i := range c2 {
		d := c2[i] - c[i]
		if d > 1e-12 || d < -1e-12 {
			t.Fatal("FP64 NT pack path diverges from main kernel on packed buffer")
		}
	}
}

func TestScaleRows(t *testing.T) {
	c := []float32{1, 2, 3, 4, 5, 6}
	ScaleRows(2, 2, 2, c, 3) // scales (0,0),(0,1),(1,0),(1,1)
	want := []float32{2, 4, 3, 8, 10, 6}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v", c)
		}
	}
	ScaleRows(2, 2, 0, c, 3)
	if c[0] != 0 || c[1] != 0 || c[2] != 3 {
		t.Fatal("beta=0 scale wrong")
	}
	d := []float64{1, 2}
	ScaleRows(1, 2, 3, d, 2)
	if d[0] != 3 || d[1] != 6 {
		t.Fatal("FP64 scale wrong")
	}
	ScaleRows(1, 2, 0, d, 2)
	if d[0] != 0 || d[1] != 0 {
		t.Fatal("FP64 beta=0 scale wrong")
	}
}
