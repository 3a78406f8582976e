package libshalom

import (
	"runtime"
	"testing"
	"testing/quick"

	"libshalom/internal/mat"
)

func TestSGEMMQuickstartShape(t *testing.T) {
	// The 8x8x8 NekBox-style kernel from the paper's introduction.
	rng := mat.NewRNG(1)
	a := mat.RandomF32(8, 8, rng)
	b := mat.RandomF32(8, 8, rng)
	c := mat.NewF32(8, 8)
	if err := SGEMM(NN, 8, 8, 8, 1, a.Data, 8, b.Data, 8, 0, c.Data, 8); err != nil {
		t.Fatal(err)
	}
	want := mat.NewF32(8, 8)
	mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, a, b, 0, want)
	if !c.Equal(want, 1e-3) {
		t.Fatalf("max diff %g", c.MaxDiff(want))
	}
}

func TestContextAllModesProperty(t *testing.T) {
	ctx := New(WithPlatform(Phytium2000()), WithThreads(2))
	defer ctx.Close()
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 1)
		m, n, k := rng.Intn(60)+1, rng.Intn(60)+1, rng.Intn(40)+1
		mode := []Mode{NN, NT, TN, TT}[rng.Intn(4)]
		la := mat.RandomF32(m, k, rng)
		lb := mat.RandomF32(k, n, rng)
		a, b := la, lb
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			a, ta = la.Transpose(), mat.Transpose
		}
		if mode.TransB() {
			b, tb = lb.Transpose(), mat.Transpose
		}
		c := mat.RandomF32(m, n, rng)
		want := c.Clone()
		mat.RefGEMMF32(ta, tb, 1.25, a, b, -0.75, want)
		if err := ctx.SGEMM(mode, m, n, k, 1.25, a.Data, a.Stride, b.Data, b.Stride, -0.75, c.Data, c.Stride); err != nil {
			return false
		}
		return c.Equal(want, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDGEMMDefault(t *testing.T) {
	rng := mat.NewRNG(2)
	a := mat.RandomF64(23, 23, rng)
	b := mat.RandomF64(23, 23, rng)
	c := mat.NewF64(23, 23)
	if err := DGEMM(NN, 23, 23, 23, 1, a.Data, 23, b.Data, 23, 0, c.Data, 23); err != nil {
		t.Fatal(err)
	}
	want := mat.NewF64(23, 23)
	mat.RefGEMMF64(mat.NoTrans, mat.NoTrans, 1, a, b, 0, want)
	if !c.Equal(want, 1e-10) {
		t.Fatal("DGEMM wrong")
	}
}

// TestAutoThreadPolicy checks the §7.4 automatic policy through the width
// PlanFor reports: small calls run single-threaded even where their work
// would pay for a fork, irregular and large calls fork as wide as the
// machine allows, and an explicit width wins over the policy.
func TestAutoThreadPolicy(t *testing.T) {
	ctx := New()
	if got := ctx.PlanFor(NN, 8, 8, 8, 4).Threads; got != 1 {
		t.Fatalf("small GEMM planned %d threads, must run single-threaded (§7.4)", got)
	}
	if got := ctx.PlanFor(NN, 100, 100, 100, 4).Threads; got != 1 {
		t.Fatalf("mid-small GEMM planned %d threads, must run single-threaded", got)
	}
	procs := runtime.GOMAXPROCS(0)
	if got := ctx.PlanFor(NT, 64, 50176, 576, 4).Threads; got != procs {
		t.Fatalf("irregular GEMM planned %d threads, want GOMAXPROCS=%d", got, procs)
	}
	if got := ctx.PlanFor(NN, 2048, 2048, 2048, 4).Threads; got != procs {
		t.Fatalf("large GEMM planned %d threads, want GOMAXPROCS=%d", got, procs)
	}
	if got := New(WithThreads(3)).PlanFor(NN, 100, 100, 100, 4).Threads; got != 3 {
		t.Fatalf("WithThreads(3) planned %d threads for 100³, explicit thread count must win", got)
	}
}

func TestIrregularParallelCorrect(t *testing.T) {
	ctx := New(WithThreads(8))
	defer ctx.Close()
	rng := mat.NewRNG(3)
	m, n, k := 32, 2048, 64
	a := mat.RandomF32(m, k, rng)
	bt := mat.RandomF32(n, k, rng) // stored transposed for NT
	c := mat.NewF32(m, n)
	if err := ctx.SGEMM(NT, m, n, k, 1, a.Data, a.Stride, bt.Data, bt.Stride, 0, c.Data, c.Stride); err != nil {
		t.Fatal(err)
	}
	want := mat.NewF32(m, n)
	mat.RefGEMMF32(mat.NoTrans, mat.Transpose, 1, a, bt, 0, want)
	if !c.Equal(want, 1e-2) {
		t.Fatalf("parallel NT wrong: %g", c.MaxDiff(want))
	}
}

func TestAnalyticExports(t *testing.T) {
	if tl := MicroKernelTile(4); tl.MR != 7 || tl.NR != 12 {
		t.Fatal("FP32 tile export wrong")
	}
	if tl := MicroKernelTile(8); tl.MR != 7 || tl.NR != 6 {
		t.Fatal("FP64 tile export wrong")
	}
	blk := BlockingFor(KP920(), 4)
	if blk.KC < 32 || blk.MC < 7 || blk.NC < 12 {
		t.Fatalf("blocking export implausible: %+v", blk)
	}
	p := PartitionFor(2048, 256, 64)
	if p.TM != 16 || p.TN != 4 {
		t.Fatal("partition export wrong (paper example)")
	}
}

func TestParseModeExport(t *testing.T) {
	m, err := ParseMode("NT")
	if err != nil || m != NT {
		t.Fatal("ParseMode export broken")
	}
}

func TestPredict(t *testing.T) {
	pred, err := Predict(ImplLibShalom(), Phytium2000(), NN, 32, 32, 32, 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if pred.GFLOPS <= 0 || pred.PercentOfPeak <= 0 || pred.PercentOfPeak > 100 {
		t.Fatalf("prediction implausible: %+v", pred)
	}
	// Paper's headline: LibShalom beats every baseline on small GEMM.
	for _, impl := range []Implementation{ImplOpenBLAS(), ImplBLIS(), ImplARMPL(), ImplBLASFEO(), ImplLIBXSMM()} {
		alt, err := Predict(impl, Phytium2000(), NN, 32, 32, 32, 4, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if alt.GFLOPS > pred.GFLOPS {
			t.Fatalf("%s predicted above LibShalom on small GEMM", impl.Name)
		}
	}
	if _, err := Predict(ImplLibShalom(), KP920(), NN, 8, 8, 8, 3, 1, true); err == nil {
		t.Fatal("bad element size accepted")
	}
	if _, err := Predict(ImplLibShalom(), KP920(), NN, 0, 8, 8, 4, 1, true); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestContextCloseReuse(t *testing.T) {
	ctx := New(WithThreads(4))
	rng := mat.NewRNG(4)
	a := mat.RandomF32(32, 32, rng)
	b := mat.RandomF32(32, 2048, rng)
	c := mat.NewF32(32, 2048)
	if err := ctx.SGEMM(NN, 32, 2048, 32, 1, a.Data, 32, b.Data, 2048, 0, c.Data, 2048); err != nil {
		t.Fatal(err)
	}
	ctx.Close()
	// Context must restart its pool on demand after Close.
	if err := ctx.SGEMM(NN, 32, 2048, 32, 1, a.Data, 32, b.Data, 2048, 0, c.Data, 2048); err != nil {
		t.Fatal(err)
	}
	ctx.Close()
}

func TestPlanForExport(t *testing.T) {
	ctx := New(WithPlatform(Phytium2000()))
	p := ctx.PlanFor(NN, 32, 32, 32, 4)
	if p.Tile.MR != 7 || p.Tile.NR != 12 || p.Threads != 1 {
		t.Fatalf("plan export wrong: %+v", p)
	}
	ctx2 := New(WithThreads(64))
	pp := ctx2.PlanFor(NT, 64, 50176, 576, 4)
	if pp.Threads != 64 || pp.Partition.TN < pp.Partition.TM {
		t.Fatalf("parallel plan export wrong: %+v", pp)
	}
	if pp.String() == "" {
		t.Fatal("plan must render")
	}
}

func TestTuneTileExport(t *testing.T) {
	best, analyticTile := TuneTile(KP920(), 4)
	if analyticTile.MR != 7 || analyticTile.NR != 12 {
		t.Fatal("analytic tile export wrong")
	}
	if best.MR < 1 || best.NR < 4 {
		t.Fatalf("searched tile implausible: %+v", best)
	}
}
