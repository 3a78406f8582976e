package libshalom

import (
	"testing"

	"libshalom/internal/faults"
	"libshalom/internal/mat"
)

func TestPublicSGEMMBatch(t *testing.T) {
	ctx := New()
	defer ctx.Close()
	rng := mat.NewRNG(9)
	const count = 24
	batch := make([]SBatchEntry, count)
	wants := make([]*mat.F32, count)
	for i := range batch {
		m := rng.Intn(24) + 1
		a := mat.RandomF32(m, m, rng)
		b := mat.RandomF32(m, m, rng)
		c := mat.NewF32(m, m)
		want := mat.NewF32(m, m)
		mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, a, b, 0, want)
		wants[i] = want
		batch[i] = SBatchEntry{M: m, N: m, K: m, Alpha: 1,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride, Beta: 0, C: c.Data, LDC: c.Stride}
	}
	if err := ctx.SGEMMBatch(NN, batch); err != nil {
		t.Fatal(err)
	}
	for i, e := range batch {
		got := &mat.F32{Rows: e.M, Cols: e.N, Stride: e.LDC, Data: e.C}
		if !got.Equal(wants[i], 1e-3) {
			t.Fatalf("entry %d wrong", i)
		}
	}
}

func TestPublicDGEMMBatchNT(t *testing.T) {
	ctx := New(WithThreads(3))
	defer ctx.Close()
	rng := mat.NewRNG(10)
	const count = 7
	batch := make([]DBatchEntry, count)
	wants := make([]*mat.F64, count)
	for i := range batch {
		m, n, k := rng.Intn(16)+1, rng.Intn(16)+1, rng.Intn(16)+1
		a := mat.RandomF64(m, k, rng)
		bt := mat.RandomF64(n, k, rng)
		c := mat.RandomF64(m, n, rng)
		want := c.Clone()
		mat.RefGEMMF64(mat.NoTrans, mat.Transpose, 2, a, bt, -1, want)
		wants[i] = want
		batch[i] = DBatchEntry{M: m, N: n, K: k, Alpha: 2,
			A: a.Data, LDA: a.Stride, B: bt.Data, LDB: bt.Stride, Beta: -1, C: c.Data, LDC: c.Stride}
	}
	if err := ctx.DGEMMBatch(NT, batch); err != nil {
		t.Fatal(err)
	}
	for i, e := range batch {
		got := &mat.F64{Rows: e.M, Cols: e.N, Stride: e.LDC, Data: e.C}
		if !got.Equal(wants[i], 1e-10) {
			t.Fatalf("entry %d wrong", i)
		}
	}
}

func TestMicroKernelTileForVectorExport(t *testing.T) {
	tl, err := MicroKernelTileForVector(512, 4)
	if err != nil || tl.MR != 15 || tl.NR != 16 {
		t.Fatalf("SVE-512 FP32 tile = %dx%d, %v", tl.MR, tl.NR, err)
	}
	if _, err := MicroKernelTileForVector(100, 4); err == nil {
		t.Fatal("invalid width accepted")
	}
	// The A64FX model must be consistent with its SVE width.
	if A64FX().Lanes(4) != 16 {
		t.Fatal("A64FX lanes wrong")
	}
}

// A batch of micro-tile-degenerate entries (every m, n <= 4) must never spin
// the worker pool, whatever width was requested: the batch's work is
// smaller than a fork-join, so the work rule keeps it serial — the
// assertion the serving path relies on when a storm of 1x1x1 requests
// coalesces into one flush.
func TestBatchDegenerateClampSkipsPool(t *testing.T) {
	ctx := New(WithThreads(8), WithTelemetry())
	defer ctx.Close()
	rng := mat.NewRNG(11)
	const count = 64
	batch := make([]SBatchEntry, count)
	for i := range batch {
		a := mat.RandomF32(1, 1, rng)
		b := mat.RandomF32(1, 1, rng)
		c := mat.NewF32(1, 1)
		batch[i] = SBatchEntry{M: 1, N: 1, K: 1, Alpha: 1,
			A: a.Data, LDA: 1, B: b.Data, LDB: 1, Beta: 0, C: c.Data, LDC: 1}
	}
	if err := ctx.SGEMMBatch(NN, batch); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Snapshot()
	if snap.Pool.TasksQueued != 0 {
		t.Fatalf("degenerate batch queued %d pool tasks, want 0", snap.Pool.TasksQueued)
	}
	if snap.Threads.Calls != 1 || snap.Threads.ClampedCalls != 1 || snap.Threads.ChosenSum != 1 {
		t.Fatalf("thread policy record = %+v, want one clamped call of width 1", snap.Threads)
	}

	// One entry whose work clears the fork floor lets the batch fork.
	big := mat.RandomF32(96, 96, rng)
	bigC := mat.NewF32(96, 96)
	mixed := append(batch[:8:8], SBatchEntry{M: 96, N: 96, K: 96, Alpha: 1,
		A: big.Data, LDA: big.Stride, B: big.Data, LDB: big.Stride, Beta: 0, C: bigC.Data, LDC: bigC.Stride})
	if err := ctx.SGEMMBatch(NN, mixed); err != nil {
		t.Fatal(err)
	}
	snap = ctx.Snapshot()
	if snap.Pool.TasksQueued == 0 {
		t.Fatal("mixed batch never used the pool; the clamp is overreaching")
	}
}

// A batch's planned width is a cap the pool enforces, not only a count of
// units: a 64 × 16³ batch, which the work rule plans 2 wide under
// WithThreads(8), never has more pool units in flight than that, even with
// every unit slowed so that an uncapped pool would run all of its chunks at
// once.
func TestBatchWidthIsEnforced(t *testing.T) {
	faults.Arm(faults.SlowWorker, faults.Unlimited)
	defer faults.Reset()
	ctx := New(WithThreads(8), WithTelemetry())
	defer ctx.Close()
	const s = 16
	rng := mat.NewRNG(13)
	batch := make([]SBatchEntry, 64)
	for i := range batch {
		a := mat.RandomF32(s, s, rng)
		batch[i] = SBatchEntry{M: s, N: s, K: s, Alpha: 1,
			A: a.Data, LDA: s, B: a.Data, LDB: s, C: make([]float32, s*s), LDC: s}
	}
	done := make(chan error)
	go func() { done <- ctx.SGEMMBatch(NN, batch) }()
	var peak int64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
			peak = max(peak, ctx.Snapshot().Pool.InFlight)
		}
	}
	width := ctx.Snapshot().Threads.ChosenSum
	if width != 2 {
		t.Fatalf("planned width %d, want 2", width)
	}
	if peak > int64(width) {
		t.Fatalf("%d pool units in flight for a batch of width %d", peak, width)
	}
}
