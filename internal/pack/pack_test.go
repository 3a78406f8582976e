package pack

import (
	"testing"
	"testing/quick"

	"libshalom/internal/mat"
)

func TestDecisionNN(t *testing.T) {
	l1 := 32 << 10
	if ShouldPackBNN(l1, l1) != NoPack {
		t.Fatal("B exactly at L1 capacity must not be packed (§4.2)")
	}
	if ShouldPackBNN(l1+1, l1) != PackOverlap {
		t.Fatal("B over L1 capacity must be packed with overlap")
	}
}

func TestDecisionNT(t *testing.T) {
	if ShouldPackBNT() != PackOverlap {
		t.Fatal("NT must always pack B (§4.3)")
	}
}

func TestDepthFor(t *testing.T) {
	llc := 2 << 20
	if DepthFor(llc, llc) != DepthCurrent {
		t.Fatal("LLC-resident B must use t=0")
	}
	if DepthFor(llc+1, llc) != DepthAhead {
		t.Fatal("beyond-LLC B must use t=1 (§5.3.2)")
	}
}

func TestStrategyString(t *testing.T) {
	if NoPack.String() != "none" || PackOverlap.String() != "overlap" || PackSequential.String() != "sequential" {
		t.Fatal("strategy names wrong")
	}
}

func TestPackBF32(t *testing.T) {
	rng := mat.NewRNG(1)
	b := mat.RandomF32(10, 8, rng)
	dst := make([]float32, 3*4)
	PackBF32(dst, b.Data, b.Stride, 2, 3, 3, 4)
	for k := 0; k < 3; k++ {
		for j := 0; j < 4; j++ {
			if dst[k*4+j] != b.At(2+k, 3+j) {
				t.Fatalf("dst(%d,%d) wrong", k, j)
			}
		}
	}
}

func TestPackBTransposedRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed) + 5)
		n, k := rng.Intn(12)+1, rng.Intn(12)+1
		bt := mat.RandomF32(n, k, rng) // stored N×K
		dst := make([]float32, k*n)
		PackBTransposedF32(dst, bt.Data, bt.Stride, 0, 0, k, n)
		// dst must equal bt transposed.
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				if dst[kk*n+j] != bt.At(j, kk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackAF32SubBlock(t *testing.T) {
	rng := mat.NewRNG(2)
	a := mat.RandomF32(9, 11, rng)
	dst := make([]float32, 4*5)
	PackA(dst, a.Data, a.Stride, 3, 2, 4, 5)
	for i := 0; i < 4; i++ {
		for k := 0; k < 5; k++ {
			if dst[i*5+k] != a.At(3+i, 2+k) {
				t.Fatalf("A pack (%d,%d) wrong", i, k)
			}
		}
	}
}

func TestPackATransposed(t *testing.T) {
	rng := mat.NewRNG(3)
	at := mat.RandomF32(7, 9, rng) // stored K×M (K=7, M=9)
	dst := make([]float32, 4*3)    // mc=4, kc=3
	PackATransposed(dst, at.Data, at.Stride, 2, 1, 4, 3)
	for i := 0; i < 4; i++ {
		for k := 0; k < 3; k++ {
			if dst[i*3+k] != at.At(1+k, 2+i) {
				t.Fatalf("A^T pack (%d,%d) wrong", i, k)
			}
		}
	}
}

func TestPackF64Variants(t *testing.T) {
	rng := mat.NewRNG(5)
	b := mat.RandomF64(6, 7, rng)
	dst := make([]float64, 2*3)
	PackBF64(dst, b.Data, b.Stride, 1, 2, 2, 3)
	if dst[0] != b.At(1, 2) || dst[5] != b.At(2, 4) {
		t.Fatal("PackBF64 wrong")
	}
	bt := mat.RandomF64(5, 6, rng)
	dstT := make([]float64, 4*2)
	PackBTransposedF64(dstT, bt.Data, bt.Stride, 1, 2, 4, 2)
	if dstT[0*2+0] != bt.At(2, 1) || dstT[3*2+1] != bt.At(3, 4) {
		t.Fatal("PackBTransposedF64 wrong")
	}
	a := mat.RandomF64(6, 8, rng)
	dstA := make([]float64, 3*4)
	PackA(dstA, a.Data, a.Stride, 2, 3, 3, 4)
	if dstA[0] != a.At(2, 3) || dstA[11] != a.At(4, 6) {
		t.Fatal("PackA FP64 wrong")
	}
	at := mat.RandomF64(5, 7, rng)
	dstAT := make([]float64, 2*3)
	PackATransposed(dstAT, at.Data, at.Stride, 1, 0, 2, 3)
	if dstAT[0*3+0] != at.At(0, 1) || dstAT[1*3+2] != at.At(2, 2) {
		t.Fatal("PackATransposed FP64 wrong")
	}
}
