package kernels

import (
	"fmt"
	"math"
	"testing"

	"libshalom/internal/mat"
)

// oracleNN is the plain i-j-k loop the compute kernels must reproduce bit
// for bit: every C element accumulates in T, in k order, then takes the
// alpha*acc (beta == 0) or alpha*acc + beta*c epilogue.
func oracleNN[T Float](mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
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

// oracleNT is oracleNN with B stored transposed: B(k, j) = bT[j*ldbT+k].
func oracleNT[T Float](mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int) {
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

// bitsOf returns x's IEEE bit pattern, so equality distinguishes -0 from +0.
func bitsOf[T Float](x T) uint64 {
	switch v := any(x).(type) {
	case float32:
		return uint64(math.Float32bits(v))
	case float64:
		return math.Float64bits(v)
	}
	panic("unreachable")
}

// TestMicroMatchesOracle is the compute kernels' differential test. Over
// every tile up to 8×16 (the §5.2 tiles, every tuner-family tile, the
// baselines' 8×4/8×8/8×12 and perfbench's 8-wide isolation), k depths that
// cover the one-step, two-step, odd and long loops, padded strides and the
// α/β cases the drivers pass, Micro, MicroNT and MicroPacked in both
// precisions must give the oracle's bits, leave C's padding untouched and
// ignore C (NaN here) when β = 0. PackPanel and PackPanelNT, run one
// sliver wide, must leave it in Bc as k-contiguous columns and Bc past it
// untouched, and MicroPacked must give the oracle's bits from that sliver.
func TestMicroMatchesOracle(t *testing.T) {
	diffSweep[float32](t)
	diffSweep[float64](t)
}

func diffSweep[T Float](t *testing.T) {
	t.Helper()
	rng := mat.NewRNG(25)
	nan := T(math.NaN())
	const sentinel = -7777
	for mr := 1; mr <= 8; mr++ {
		for nr := 1; nr <= 16; nr++ {
			for _, kc := range []int{1, 2, 7, 257} {
				lda, ldb, ldbT, ldc := kc+3, nr+5, kc+2, nr+4
				// A and B carry NaN in their padding, so a kernel that reads
				// past kc or nr poisons C; the slices end at the last element
				// the tile may touch, so a read beyond it panics.
				a := diffOperand[T](rng, mr, kc, lda, nan)
				b := diffOperand[T](rng, kc, nr, ldb, nan)
				bT := diffOperand[T](rng, nr, kc, ldbT, nan)
				c0 := make([]T, mr*ldc)
				for i := range c0 {
					c0[i] = T(rng.Float64() - 0.5)
					if i%ldc >= nr {
						c0[i] = sentinel
					}
				}
				for _, alpha := range []T{1, -0.75, 0} {
					for _, beta := range []T{0, 1, 0.5} {
						cIn := append([]T(nil), c0...)
						if beta == 0 {
							for i := range cIn {
								if i%ldc < nr {
									cIn[i] = nan
								}
							}
						}
						wantNN := append([]T(nil), cIn...)
						oracleNN(mr, nr, kc, alpha, a, lda, b, ldb, beta, wantNN, ldc)
						wantNT := append([]T(nil), cIn...)
						oracleNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, wantNT, ldc)

						id := fmt.Sprintf("[%T] %dx%d kc=%d α=%v β=%v", alpha, mr, nr, kc, alpha, beta)
						got := append([]T(nil), cIn...)
						Micro(mr, nr, kc, alpha, a, lda, b, ldb, beta, got, ldc)
						checkTile(t, "Micro"+id, got, wantNN)

						got = append(got[:0], cIn...)
						MicroNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, got, ldc)
						checkTile(t, "MicroNT"+id, got, wantNT)

						bc := diffBc[T](kc, nr, sentinel)
						PackPanel(kc, nr, b, ldb, bc)
						checkBc(t, "PackPanel"+id, bc, kc, nr, sentinel, func(k, j int) T { return b[k*ldb+j] })
						got = append(got[:0], cIn...)
						MicroPacked(mr, nr, kc, alpha, a, lda, bc, beta, got, ldc)
						checkTile(t, "MicroPacked NN"+id, got, wantNN)

						bc = diffBc[T](kc, nr, sentinel)
						PackPanelNT(kc, nr, bT, ldbT, bc)
						checkBc(t, "PackPanelNT"+id, bc, kc, nr, sentinel, func(k, j int) T { return bT[j*ldbT+k] })
						got = append(got[:0], cIn...)
						MicroPacked(mr, nr, kc, alpha, a, lda, bc, beta, got, ldc)
						checkTile(t, "MicroPacked NT"+id, got, wantNT)
						if t.Failed() {
							return
						}
					}
				}
			}
		}
	}
}

// TestPanelMatchesOracle runs the driver's packed path on whole panels:
// PackPanel or PackPanelNT fills a kc×nc panel, then MicroPacked computes
// every nr-column sliver of it. Over both precisions' tiles and a 4×2
// host block, panel depths below, at and around multiples of PackPanel's
// row group, widths that leave a partial last sliver, and B strides wider
// than the panel, the panel must hold B(k, j) at bp[j*kc+k] with its
// sentinels past kc*nc untouched, and the mr×nc C block must get the
// oracle's bits.
func TestPanelMatchesOracle(t *testing.T) {
	panelSweep[float32](t, 7, 12)
	panelSweep[float64](t, 7, 6)
	panelSweep[float32](t, 4, 2)
	panelSweep[float64](t, 3, 5)
}

func panelSweep[T Float](t *testing.T, mr, nr int) {
	t.Helper()
	rng := mat.NewRNG(30)
	nan := T(math.NaN())
	const sentinel = -7777
	kcs := []int{1, panelRows - 1, panelRows, panelRows + 1, 3*panelRows + 2, 131}
	for _, kc := range kcs {
		for _, nc := range []int{1, nr - 1, nr, 2*nr + 1, 5*nr + 3} {
			if nc < 1 {
				continue
			}
			lda, ldb, ldbT, ldc := kc+1, nc+3, kc+5, nc+2
			a := diffOperand[T](rng, mr, kc, lda, nan)
			b := diffOperand[T](rng, kc, nc, ldb, nan)
			bT := diffOperand[T](rng, nc, kc, ldbT, nan)
			cIn := diffOperand[T](rng, mr, nc, ldc, sentinel)
			for _, tc := range []struct {
				name   string
				fill   func(bp []T)
				at     func(k, j int) T
				oracle func(c []T)
			}{
				{"NN", func(bp []T) { PackPanel(kc, nc, b, ldb, bp) },
					func(k, j int) T { return b[k*ldb+j] },
					func(c []T) { oracleNN(mr, nc, kc, 0.5, a, lda, b, ldb, 1, c, ldc) }},
				{"NT", func(bp []T) { PackPanelNT(kc, nc, bT, ldbT, bp) },
					func(k, j int) T { return bT[j*ldbT+k] },
					func(c []T) { oracleNT(mr, nc, kc, 0.5, a, lda, bT, ldbT, 1, c, ldc) }},
			} {
				id := fmt.Sprintf("[%T] %s %dx%d panel kc=%d nc=%d", a[0], tc.name, mr, nr, kc, nc)
				bp := diffBc[T](kc, nc, sentinel)
				tc.fill(bp)
				checkBc(t, "PackPanel"+id, bp, kc, nc, sentinel, tc.at)
				want := append([]T(nil), cIn...)
				tc.oracle(want)
				got := append([]T(nil), cIn...)
				for j := 0; j < nc; j += nr {
					MicroPacked(mr, min(nr, nc-j), kc, 0.5, a, lda, bp[j*kc:], 1, got[j:], ldc)
				}
				checkTile(t, "MicroPacked"+id, got, want)
				if t.Failed() {
					return
				}
			}
		}
	}
}

// diffOperand returns a rows×cols operand with leading dimension ld: random
// values inside, pad in the padding, and no element after the last one a
// tile may read.
func diffOperand[T Float](rng *mat.RNG, rows, cols, ld int, pad T) []T {
	s := make([]T, (rows-1)*ld+cols)
	for i := range s {
		if i%ld < cols {
			s[i] = T(rng.Float64() - 0.5)
		} else {
			s[i] = pad
		}
	}
	return s
}

// diffBc returns a Bc buffer for a kc×nr sliver or panel, one column
// longer than it, filled with sentinel.
func diffBc[T Float](kc, nr int, sentinel T) []T {
	bc := make([]T, (nr+1)*kc)
	for i := range bc {
		bc[i] = sentinel
	}
	return bc
}

// checkTile compares the whole C buffer, padding included, bit for bit.
func checkTile[T Float](t *testing.T, name string, got, want []T) {
	t.Helper()
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Errorf("%s: c[%d] = %v, want %v", name, i, got[i], want[i])
			return
		}
	}
}

// checkBc asserts the packed sliver or panel holds B(k, j) at bc[j*kc+k],
// nr k-contiguous columns, and every element of bc past nr*kc still holds
// the sentinel.
func checkBc[T Float](t *testing.T, name string, bc []T, kc, nr int, sentinel T, want func(k, j int) T) {
	t.Helper()
	for i, got := range bc {
		w := sentinel
		if j, k := i/kc, i%kc; j < nr {
			w = want(k, j)
		}
		if bitsOf(got) != bitsOf(w) {
			t.Errorf("%s: bc[%d] = %v, want %v", name, i, got, w)
			return
		}
	}
}
