package baselines

import (
	"testing"
	"testing/quick"

	"libshalom/internal/core"
	"libshalom/internal/mat"
	"libshalom/internal/platform"
)

func TestAllLibsAllModesSmall(t *testing.T) {
	rng := mat.NewRNG(42)
	for _, lib := range All() {
		for _, mode := range core.Modes() {
			for _, dims := range [][3]int{{5, 5, 5}, {8, 8, 8}, {13, 9, 21}, {23, 23, 23}, {40, 50, 60}} {
				m, n, k := dims[0], dims[1], dims[2]
				la := mat.RandomF32(m, k, rng)
				lb := mat.RandomF32(k, n, rng)
				a, b := la, lb
				if mode.TransA() {
					a = la.Transpose()
				}
				if mode.TransB() {
					b = lb.Transpose()
				}
				c := mat.RandomF32(m, n, rng)
				want := c.Clone()
				ta, tb := mat.NoTrans, mat.NoTrans
				if mode.TransA() {
					ta = mat.Transpose
				}
				if mode.TransB() {
					tb = mat.Transpose
				}
				mat.RefGEMMF32(ta, tb, 1.5, a, b, 0.5, want)
				if err := SGEMM(lib, nil, 1, mode, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride); err != nil {
					t.Fatalf("%v %v %v: %v", lib, mode, dims, err)
				}
				if !c.Equal(want, 1e-3) {
					t.Fatalf("%v %v %v: max diff %g", lib, mode, dims, c.MaxDiff(want))
				}
			}
		}
	}
}

// TestBaselineProperty drives every baseline over random shapes (every
// dimension up to 96), scalars, modes, platforms and thread counts against
// the reference.
func TestBaselineProperty(t *testing.T) {
	libs := All()
	plats := platform.All()
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 999)
		lib := libs[rng.Intn(len(libs))]
		mode := core.Modes()[rng.Intn(4)]
		plat := plats[rng.Intn(3)]
		m, n, k := rng.Intn(96)+1, rng.Intn(96)+1, rng.Intn(96)+1
		threads := []int{1, 2, 4}[rng.Intn(3)]
		alpha := float32(rng.Float64()*4 - 2)
		beta := float32(rng.Float64()*4 - 2)
		la := mat.RandomF32(m, k, rng)
		lb := mat.RandomF32(k, n, rng)
		a, b := la, lb
		if mode.TransA() {
			a = la.Transpose()
		}
		if mode.TransB() {
			b = lb.Transpose()
		}
		c := mat.RandomF32(m, n, rng)
		want := c.Clone()
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			ta = mat.Transpose
		}
		if mode.TransB() {
			tb = mat.Transpose
		}
		mat.RefGEMMF32(ta, tb, alpha, a, b, beta, want)
		if err := SGEMM(lib, plat, threads, mode, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride); err != nil {
			return false
		}
		return c.Equal(want, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDGEMMBaselines(t *testing.T) {
	rng := mat.NewRNG(50)
	m, n, k := 23, 23, 23 // CP2K-style FP64 shape
	la := mat.RandomF64(m, k, rng)
	lb := mat.RandomF64(k, n, rng)
	for _, lib := range All() {
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		mat.RefGEMMF64(mat.NoTrans, mat.NoTrans, 1, la, lb, 0, want)
		if err := DGEMM(lib, nil, 1, core.NN, m, n, k, 1, la.Data, la.Stride, lb.Data, lb.Stride, 0, c.Data, c.Stride); err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want, 1e-10) {
			t.Fatalf("%v FP64: max diff %g", lib, c.MaxDiff(want))
		}
	}
}

func TestParallelSchemesMatchSerial(t *testing.T) {
	rng := mat.NewRNG(51)
	m, n, k := 64, 512, 80
	la := mat.RandomF32(m, k, rng)
	lb := mat.RandomF32(k, n, rng)
	for _, lib := range []Lib{OpenBLAS, BLIS, ARMPL} {
		serial := mat.NewF32(m, n)
		par := mat.NewF32(m, n)
		if err := SGEMM(lib, nil, 1, core.NN, m, n, k, 1, la.Data, la.Stride, lb.Data, lb.Stride, 0, serial.Data, serial.Stride); err != nil {
			t.Fatal(err)
		}
		if err := SGEMM(lib, nil, 8, core.NN, m, n, k, 1, la.Data, la.Stride, lb.Data, lb.Stride, 0, par.Data, par.Stride); err != nil {
			t.Fatal(err)
		}
		if !par.Equal(serial, 0) {
			t.Fatalf("%v: parallel differs from serial", lib)
		}
	}
}

func TestBLASFEOAndLIBXSMMIgnoreThreads(t *testing.T) {
	// §7.4: BLASFEO has no multi-threaded mode; LIBXSMM's small path is
	// single-threaded. Requesting threads must still give correct results.
	rng := mat.NewRNG(52)
	m, n, k := 16, 16, 16
	la := mat.RandomF32(m, k, rng)
	lb := mat.RandomF32(k, n, rng)
	for _, lib := range []Lib{BLASFEO, LIBXSMM} {
		c := mat.NewF32(m, n)
		want := mat.NewF32(m, n)
		mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, la, lb, 0, want)
		if err := SGEMM(lib, nil, 64, core.NN, m, n, k, 1, la.Data, la.Stride, lb.Data, lb.Stride, 0, c.Data, c.Stride); err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want, 1e-3) {
			t.Fatalf("%v with threads: wrong result", lib)
		}
	}
}

func TestLIBXSMMDirectPathBoundary(t *testing.T) {
	// 64^3 is within the JIT scope; 128^3 falls back to the packed path.
	// Both must be correct.
	rng := mat.NewRNG(53)
	for _, size := range []int{64, 128} {
		la := mat.RandomF32(size, size, rng)
		lb := mat.RandomF32(size, size, rng)
		c := mat.NewF32(size, size)
		want := mat.NewF32(size, size)
		mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, la, lb, 0, want)
		if err := SGEMM(LIBXSMM, nil, 1, core.NN, size, size, size, 1, la.Data, la.Stride, lb.Data, lb.Stride, 0, c.Data, c.Stride); err != nil {
			t.Fatal(err)
		}
		if !c.Equal(want, 1e-2) {
			t.Fatalf("LIBXSMM size %d: max diff %g", size, c.MaxDiff(want))
		}
	}
}

func TestSpecs(t *testing.T) {
	ob := SpecFor(OpenBLAS)
	if ob.MR != 8 || ob.NR != 4 || ob.Parallel != SchemeMSplit {
		t.Fatal("OpenBLAS spec wrong (paper: 8x4 edge kernel, Fig 6)")
	}
	if SpecFor(BLIS).Edge != EdgePad {
		t.Fatal("BLIS must pad edges (§2.2)")
	}
	if SpecFor(BLASFEO).Parallel != SchemeNone {
		t.Fatal("BLASFEO must be single-threaded (§7.4)")
	}
	if SpecFor(LIBXSMM).SmallDirectCube != 64 {
		t.Fatal("LIBXSMM design scope is (MNK)^(1/3) <= 64 (§9)")
	}
	if OpenBLAS.String() != "OpenBLAS" || len(All()) != 5 {
		t.Fatal("library listing wrong")
	}
}

func TestSplitForShapes(t *testing.T) {
	mBlocks := splitFor(SchemeMSplit, 640, 100, 4, 8, 4)
	for _, b := range mBlocks {
		if b.N != 100 {
			t.Fatal("M-split must not divide N")
		}
	}
	nBlocks := splitFor(SchemeNSplit, 100, 640, 4, 8, 4)
	for _, b := range nBlocks {
		if b.M != 100 {
			t.Fatal("N-split must not divide M")
		}
	}
	grid := splitFor(SchemeGrid, 1000, 1000, 16, 8, 4)
	if len(grid) != 16 {
		t.Fatalf("grid split produced %d blocks, want 16", len(grid))
	}
	if len(splitFor(SchemeNone, 10, 10, 8, 8, 4)) != 1 {
		t.Fatal("SchemeNone must not split")
	}
}

func TestEdgeArgValidation(t *testing.T) {
	c := make([]float32, 4)
	if err := SGEMM(OpenBLAS, nil, 1, core.NN, 2, 2, 2, 1, c, 1, c, 2, 0, c, 2); err == nil {
		t.Fatal("bad lda accepted")
	}
	if err := SGEMM(OpenBLAS, nil, 1, core.NN, -2, 2, 2, 1, c, 2, c, 2, 0, c, 2); err == nil {
		t.Fatal("negative m accepted")
	}
	if err := SGEMM(OpenBLAS, nil, 1, core.NN, 0, 2, 2, 1, nil, 2, c, 2, 0, c, 2); err != nil {
		t.Fatalf("m=0 rejected: %v", err)
	}
	cc := []float32{7}
	if err := SGEMM(OpenBLAS, nil, 1, core.NN, 1, 1, 0, 2, nil, 1, nil, 1, 0.5, cc, 1); err != nil {
		t.Fatal(err)
	}
	if cc[0] != 3.5 {
		t.Fatal("k=0 beta scaling wrong")
	}
}
