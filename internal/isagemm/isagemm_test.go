package isagemm

import (
	"testing"
	"testing/quick"

	"libshalom/internal/core"
	"libshalom/internal/mat"
)

func TestISAGEMMKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := []float32{1, 1, 1, 1}
	// C = 2·A·B + 3·C
	if err := SGEMM(2, 2, 2, 2, a, 2, b, 2, 3, c, 2); err != nil {
		t.Fatal(err)
	}
	want := []float32{2*19 + 3, 2*22 + 3, 2*43 + 3, 2*50 + 3}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

// TestISAGEMMProperty: the all-ISA execution must match the reference on
// random small shapes, strides and scalars — the end-to-end proof that the
// emitted micro-kernels compose.
func TestISAGEMMProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 5000)
		m, n, k := rng.Intn(30)+1, rng.Intn(30)+1, rng.Intn(25)+1
		alpha := float32(rng.Float64()*3 - 1.5)
		beta := float32(rng.Float64()*3 - 1.5)
		switch rng.Intn(4) {
		case 0:
			alpha = 1
		case 1:
			beta = 0
		}
		a := mat.RandomF32(m, k, rng)
		bm := mat.RandomF32(k, n, rng)
		cw := mat.NewF32(m, n+rng.Intn(4)) // wider stride
		c := cw.View(0, 0, m, n)
		c.FillRandom(rng)
		want := c.Clone()
		mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, alpha, a, bm, beta, want)
		if err := SGEMM(m, n, k, alpha, a.Data, a.Stride, bm.Data, bm.Stride, beta, c.Data, c.Stride); err != nil {
			t.Logf("m%d n%d k%d: %v", m, n, k, err)
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d := float64(c.At(i, j)) - float64(want.At(i, j))
				if d > 2e-2 || d < -2e-2 {
					t.Logf("m%d n%d k%d α%v β%v: C(%d,%d)=%v want %v", m, n, k, alpha, beta, i, j, c.At(i, j), want.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestISAGEMMMatchesProductionDriver: the ISA path and the Go driver must
// agree on the same call (within FP32 reassociation noise).
func TestISAGEMMMatchesProductionDriver(t *testing.T) {
	rng := mat.NewRNG(6000)
	m, n, k := 23, 29, 17
	a := mat.RandomF32(m, k, rng)
	b := mat.RandomF32(k, n, rng)
	cISA := mat.RandomF32(m, n, rng)
	cGo := cISA.Clone()
	if err := SGEMM(m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, cISA.Data, cISA.Stride); err != nil {
		t.Fatal(err)
	}
	drv := core.NewDriver(core.Config{})
	defer drv.Close()
	if err := core.SGEMM(drv, core.NN, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, cGo.Data, cGo.Stride); err != nil {
		t.Fatal(err)
	}
	if !cISA.Equal(cGo, 1e-3) {
		t.Fatalf("ISA path diverges from production driver: max diff %g", cISA.MaxDiff(cGo))
	}
}

func TestISAGEMMDegenerate(t *testing.T) {
	if err := SGEMM(0, 4, 4, 1, nil, 4, make([]float32, 16), 4, 0, nil, 4); err != nil {
		t.Fatal(err)
	}
	c := []float32{2, 2}
	if err := SGEMM(1, 2, 0, 1, nil, 1, nil, 2, 0.5, c, 2); err != nil {
		t.Fatal(err)
	}
	if c[0] != 1 || c[1] != 1 {
		t.Fatalf("k=0 scaling wrong: %v", c)
	}
	if err := SGEMM(-1, 2, 2, 1, nil, 2, nil, 2, 0, nil, 2); err == nil {
		t.Fatal("negative dimension accepted")
	}
	if err := SGEMM(2, 2, 2, 1, make([]float32, 4), 1, make([]float32, 4), 2, 0, make([]float32, 4), 2); err == nil {
		t.Fatal("bad lda accepted")
	}
}

func TestScaleRowsTail(t *testing.T) {
	// n not a multiple of the vector width exercises the scratch path.
	c := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := scaleRows(2, 3, 2, c, 5); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 4, 6, 4, 5, 12, 14, 16, 9, 10}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

// BenchmarkISAGEMM measures the functional ISA interpreter end-to-end on a
// small GEMM (the interpreter is a correctness tool, not a speed path; the
// number contextualizes how much slower interpretation is than the Go
// kernels).
func BenchmarkISAGEMM(b *testing.B) {
	rng := mat.NewRNG(1)
	m := 24
	a := mat.RandomF32(m, m, rng)
	bm := mat.RandomF32(m, m, rng)
	c := mat.NewF32(m, m)
	b.SetBytes(int64(2 * m * m * m))
	for i := 0; i < b.N; i++ {
		if err := SGEMM(m, m, m, 1, a.Data, a.Stride, bm.Data, bm.Stride, 0, c.Data, c.Stride); err != nil {
			b.Fatal(err)
		}
	}
}
