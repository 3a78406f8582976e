package core

import (
	"testing"
	"testing/quick"

	"libshalom/internal/mat"
	"libshalom/internal/platform"
)

// buildOperands creates random logical M×K A and K×N B stored according to
// mode, plus a random C. Returns stored matrices.
func buildOperands32(mode Mode, m, n, k int, rng *mat.RNG) (a, b, c *mat.F32) {
	la := mat.RandomF32(m, k, rng)
	lb := mat.RandomF32(k, n, rng)
	if mode.TransA() {
		la = la.Transpose()
	}
	if mode.TransB() {
		lb = lb.Transpose()
	}
	return la, lb, mat.RandomF32(m, n, rng)
}

func refWant32(mode Mode, alpha float32, a, b *mat.F32, beta float32, c *mat.F32) *mat.F32 {
	want := c.Clone()
	ta, tb := mat.NoTrans, mat.NoTrans
	if mode.TransA() {
		ta = mat.Transpose
	}
	if mode.TransB() {
		tb = mat.Transpose
	}
	mat.RefGEMMF32(ta, tb, alpha, a, b, beta, want)
	return want
}

func TestSGEMMAllModesSmall(t *testing.T) {
	rng := mat.NewRNG(11)
	for _, mode := range Modes() {
		for _, dims := range [][3]int{{1, 1, 1}, {7, 12, 4}, {8, 8, 8}, {13, 9, 21}, {23, 23, 23}, {50, 40, 30}, {64, 3, 100}} {
			m, n, k := dims[0], dims[1], dims[2]
			a, b, c := buildOperands32(mode, m, n, k, rng)
			want := refWant32(mode, 1.5, a, b, -0.5, c)
			got := c.Clone()
			if err := SGEMM(testDriver(t, Config{}), mode, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, -0.5, got.Data, got.Stride); err != nil {
				t.Fatalf("%v %v: %v", mode, dims, err)
			}
			if !got.Equal(want, 1e-3) {
				t.Fatalf("%v %v: max diff %g", mode, dims, got.MaxDiff(want))
			}
		}
	}
}

// TestSGEMMProperty drives random shapes (every dimension up to 96),
// strides, scalars, modes, platforms and thread counts against the
// reference.
func TestSGEMMProperty(t *testing.T) {
	plats := platform.All()
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 101)
		m, n, k := rng.Intn(96)+1, rng.Intn(96)+1, rng.Intn(96)+1
		mode := Modes()[rng.Intn(4)]
		alpha := float32(rng.Float64()*4 - 2)
		beta := float32(rng.Float64()*4 - 2)
		if rng.Intn(4) == 0 {
			beta = 0
		}
		if rng.Intn(8) == 0 {
			alpha = 0
		}
		threads := []int{1, 1, 2, 4, 7, 8}[rng.Intn(6)]
		plat := plats[rng.Intn(len(plats))]
		a, b, c := buildOperands32(mode, m, n, k, rng)
		// Random extra stride on C to exercise non-compact views.
		cWide := mat.NewF32(m, n+rng.Intn(5))
		cv := cWide.View(0, 0, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				cv.Set(i, j, c.At(i, j))
			}
		}
		want := refWant32(mode, alpha, a, b, beta, c)
		if err := SGEMM(testDriver(t, Config{Plat: plat, Threads: threads}), mode, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, cv.Data, cv.Stride); err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d := float64(cv.At(i, j)) - float64(want.At(i, j))
				if d > 1e-2 || d < -1e-2 {
					t.Logf("mode %v m%d n%d k%d t%d: C(%d,%d)=%v want %v", mode, m, n, k, threads, i, j, cv.At(i, j), want.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDGEMMAllModes(t *testing.T) {
	rng := mat.NewRNG(77)
	for _, mode := range Modes() {
		m, n, k := 23, 29, 17
		la := mat.RandomF64(m, k, rng)
		lb := mat.RandomF64(k, n, rng)
		a, b := la, lb
		if mode.TransA() {
			a = la.Transpose()
		}
		if mode.TransB() {
			b = lb.Transpose()
		}
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			ta = mat.Transpose
		}
		if mode.TransB() {
			tb = mat.Transpose
		}
		mat.RefGEMMF64(ta, tb, 2, a, b, 0.25, want)
		if err := DGEMM(testDriver(t, Config{}), mode, m, n, k, 2, a.Data, a.Stride, b.Data, b.Stride, 0.25, c.Data, c.Stride); err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want, 1e-10) {
			t.Fatalf("%v: max diff %g", mode, c.MaxDiff(want))
		}
	}
}

// TestDGEMMProperty drives random shapes (every dimension up to 96),
// scalars, modes and thread counts against the FP64 reference.
func TestDGEMMProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed)*3 + 7)
		m, n, k := rng.Intn(96)+1, rng.Intn(96)+1, rng.Intn(96)+1
		mode := Modes()[rng.Intn(4)]
		alpha, beta := rng.Float64()*4-2, rng.Float64()*4-2
		threads := []int{1, 3, 4}[rng.Intn(3)]
		la := mat.RandomF64(m, k, rng)
		lb := mat.RandomF64(k, n, rng)
		a, b := la, lb
		if mode.TransA() {
			a = la.Transpose()
		}
		if mode.TransB() {
			b = lb.Transpose()
		}
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			ta = mat.Transpose
		}
		if mode.TransB() {
			tb = mat.Transpose
		}
		mat.RefGEMMF64(ta, tb, alpha, a, b, beta, want)
		if err := DGEMM(testDriver(t, Config{Threads: threads}), mode, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride); err != nil {
			return false
		}
		return c.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeKMultipleBlocks forces several kc blocks so the beta-once logic
// and Bc reuse across kk are exercised.
func TestLargeKMultipleBlocks(t *testing.T) {
	rng := mat.NewRNG(5)
	m, n, k := 30, 40, 700 // k > kc for every platform
	for _, mode := range []Mode{NN, NT} {
		a, b, c := buildOperands32(mode, m, n, k, rng)
		want := refWant32(mode, 1, a, b, 1, c)
		got := c.Clone()
		if err := SGEMM(testDriver(t, Config{Plat: platform.Phytium2000()}), mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 1, got.Data, got.Stride); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-2) {
			t.Fatalf("%v: max diff %g", mode, got.MaxDiff(want))
		}
	}
}

// TestIrregularParallelMatchesSerial checks the §6 parallel path bit-for-bit
// against the single-threaded path on an irregular shape.
func TestIrregularParallelMatchesSerial(t *testing.T) {
	rng := mat.NewRNG(6)
	m, n, k := 32, 1536, 96
	for _, mode := range []Mode{NN, NT} {
		a, b, c := buildOperands32(mode, m, n, k, rng)
		serial := c.Clone()
		parallelC := c.Clone()
		if err := SGEMM(testDriver(t, Config{Threads: 1}), mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, serial.Data, serial.Stride); err != nil {
			t.Fatal(err)
		}
		if err := SGEMM(testDriver(t, Config{Threads: 8}), mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, parallelC.Data, parallelC.Stride); err != nil {
			t.Fatal(err)
		}
		if !parallelC.Equal(serial, 0) {
			t.Fatalf("%v: parallel result differs from serial (max %g)", mode, parallelC.MaxDiff(serial))
		}
	}
}

func TestAlphaZeroScalesOnly(t *testing.T) {
	c := mat.NewF32(3, 3)
	c.Fill(2)
	a := mat.NewF32(3, 3)
	b := mat.NewF32(3, 3)
	a.Fill(999)
	b.Fill(999)
	if err := SGEMM(testDriver(t, Config{}), NN, 3, 3, 3, 0, a.Data, 3, b.Data, 3, 0.5, c.Data, 3); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 1 {
		t.Fatalf("alpha=0 path wrong: %v", c.At(1, 1))
	}
}

func TestKZeroScalesOnly(t *testing.T) {
	c := mat.NewF64(2, 2)
	c.Fill(4)
	if err := DGEMM(testDriver(t, Config{}), NN, 2, 2, 0, 3, []float64{0}, 1, []float64{0}, 2, 0.25, c.Data, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 1 {
		t.Fatal("k=0 path wrong")
	}
}

func TestZeroSizeNoop(t *testing.T) {
	if err := SGEMM(testDriver(t, Config{}), NN, 0, 5, 3, 1, nil, 3, make([]float32, 15), 5, 0, nil, 5); err != nil {
		t.Fatalf("m=0 call errored: %v", err)
	}
	if err := SGEMM(testDriver(t, Config{}), NN, 5, 0, 3, 1, make([]float32, 15), 3, nil, 1, 0, nil, 1); err != nil {
		t.Fatalf("n=0 call errored: %v", err)
	}
}

func TestArgValidation(t *testing.T) {
	c := make([]float32, 4)
	if err := SGEMM(testDriver(t, Config{}), NN, -1, 2, 2, 1, c, 2, c, 2, 0, c, 2); err == nil {
		t.Fatal("negative m accepted")
	}
	if err := SGEMM(testDriver(t, Config{}), NN, 2, 2, 2, 1, c, 1, c, 2, 0, c, 2); err == nil {
		t.Fatal("lda < k accepted")
	}
	if err := SGEMM(testDriver(t, Config{}), NN, 2, 2, 2, 1, make([]float32, 3), 2, c, 2, 0, c, 2); err == nil {
		t.Fatal("short A accepted")
	}
	if err := SGEMM(testDriver(t, Config{}), NN, 2, 2, 2, 1, c, 2, make([]float32, 3), 2, 0, c, 2); err == nil {
		t.Fatal("short B accepted")
	}
	if err := SGEMM(testDriver(t, Config{}), NN, 2, 2, 2, 1, c, 2, c, 2, 0, make([]float32, 3), 2); err == nil {
		t.Fatal("short C accepted")
	}
	// Transposed shapes: lda must cover M for TN.
	if err := SGEMM(testDriver(t, Config{}), TN, 4, 2, 2, 1, make([]float32, 8), 2, c, 2, 0, make([]float32, 8), 2); err == nil {
		t.Fatal("TN lda < m accepted")
	}
}

func TestModeHelpers(t *testing.T) {
	if NN.TransA() || NN.TransB() || !TT.TransA() || !TT.TransB() || NT.TransA() || !NT.TransB() || !TN.TransA() || TN.TransB() {
		t.Fatal("mode trans flags wrong")
	}
	for _, m := range Modes() {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode round trip failed for %v", m)
		}
	}
	if _, err := ParseMode("XX"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode String empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	if NewDriver(Config{}).cfg.Plat.Name != "Kunpeng 920" {
		t.Fatal("default platform wrong")
	}
	ph := platform.Phytium2000()
	if NewDriver(Config{Plat: ph}).cfg.Plat != ph {
		t.Fatal("explicit platform ignored")
	}
}

// testDriver builds the driver cfg resolves to, as a Context does, and
// releases its pool when the test ends.
func testDriver(t testing.TB, cfg Config) *Driver {
	d := NewDriver(cfg)
	t.Cleanup(d.Close)
	return d
}
