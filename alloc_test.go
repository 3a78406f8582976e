//go:build !race

// The race detector's sync.Pool drops a random share of Puts, so the pins
// on the driver's pooled pack and snapshot buffers cannot hold under it;
// this file builds without it only.

package libshalom

import (
	"runtime"
	"testing"

	"libshalom/internal/mat"
)

// TestAllocationPins pins the allocations per call of the driver paths the
// zero-allocation work targets: a packed single-threaded call, a forked
// irregular call in both precisions, an unpacked small call and the forked
// call with β = 1, and batches on both sides of the fork floor. It also
// pins the bytes per call of the small calls that pack, in each mode that
// packs: their B panels, A blocks and C snapshots come from the driver's
// buffer pools, so a steady-state call allocates none of them.
// A pin may only go down. testing.AllocsPerRun runs at GOMAXPROCS 1, so
// every pin sets its width explicitly. Every pin runs on a new Context,
// whose pools fill during the first calls, so the forked rows average
// enough runs to read the steady state.
func TestAllocationPins(t *testing.T) {
	rng := mat.NewRNG(12)
	lds := func(mode Mode, m, n, k int) (lda, ldb int) {
		lda, ldb = k, n
		if mode.TransA() {
			lda = m
		}
		if mode.TransB() {
			ldb = k
		}
		return lda, ldb
	}
	call := func(mode Mode, m, n, k int, beta float32) func(*Context) error {
		A := mat.RandomF32(m, k, rng)
		B := mat.RandomF32(k, n, rng)
		C := mat.NewF32(m, n)
		lda, ldb := lds(mode, m, n, k)
		return func(ctx *Context) error {
			return ctx.SGEMM(mode, m, n, k, 1, A.Data, lda, B.Data, ldb, beta, C.Data, n)
		}
	}
	call64 := func(mode Mode, m, n, k int) func(*Context) error {
		A := mat.RandomF64(m, k, rng)
		B := mat.RandomF64(k, n, rng)
		C := mat.NewF64(m, n)
		lda, ldb := lds(mode, m, n, k)
		return func(ctx *Context) error {
			return ctx.DGEMM(mode, m, n, k, 1, A.Data, lda, B.Data, ldb, 0, C.Data, n)
		}
	}
	batch := func(entries, s int) func(*Context) error {
		b := make([]SBatchEntry, entries)
		for i := range b {
			A := mat.RandomF32(s, s, rng)
			b[i] = SBatchEntry{M: s, N: s, K: s, Alpha: 1,
				A: A.Data, LDA: s, B: A.Data, LDB: s, C: make([]float32, s*s), LDC: s}
		}
		return func(ctx *Context) error { return ctx.SGEMMBatch(NN, b) }
	}
	for _, pin := range []struct {
		name    string
		threads int
		runs    int
		max     float64
		run     func(*Context) error
	}{
		// The B panel comes from the driver's pool.
		{"NT 32x32x32", 1, 100, 0, call(NT, 32, 32, 32, 0)},
		{"NT 32x32x32 f64", 1, 100, 0, call64(NT, 32, 32, 32)},
		// The split's shared state, its unit body and its partition (the
		// block list and its two span slices), and the pool run with its
		// width semaphore and hand-out goroutine.
		{"NN 64x2048x512", 2, 20, 8, call(NN, 64, 2048, 512, 0)},
		{"NN 64x2048x512 f64", 2, 20, 8, call64(NN, 64, 2048, 512)},
		// β ≠ 0: the transient retry copies each C block before its fast
		// path runs, whether or not the kernel panics, into a buffer from
		// the driver's pool.
		{"NN 8x8x8 beta 1", 1, 100, 0, call(NN, 8, 8, 8, 1)},
		{"NN 64x2048x512 beta 1", 2, 20, 8, call(NN, 64, 2048, 512, 1)},
		// Below the fork floor a batch runs serially: only its completion
		// bitmap allocates.
		{"batch 16 x 8^3", 2, 100, 1, batch(16, 8)},
		{"batch 2 x 8^3", 2, 100, 1, batch(2, 8)},
		// Above it: the bitmap, the chunk body and the call it captures, and
		// the pool run with its width semaphore and hand-out.
		{"batch 8 x 64^3", 2, 20, 6, batch(8, 64)},
	} {
		ctx := New(WithThreads(pin.threads))
		var err error
		got := testing.AllocsPerRun(pin.runs, func() { err = pin.run(ctx) })
		ctx.Close()
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		t.Logf("%s: %v allocations per call", pin.name, got)
		if got > pin.max {
			t.Errorf("%s at WithThreads(%d) allocates %v objects per call, pinned at %v", pin.name, pin.threads, got, pin.max)
		}
	}
	// The f32 B panel is min(kc, k)·min(nc, n)·4 B and the TN/TT A block
	// min(mc, m)·min(kc, k)·4 B, both from the driver's pool; NN and TN
	// leave a B that fits the L1 in place.
	ctx := New(WithThreads(1))
	defer ctx.Close()
	for _, pin := range []struct {
		name string
		max  uint64
		run  func(*Context) error
	}{
		{"NT 8^3", 0, call(NT, 8, 8, 8, 0)},
		{"TN 8^3", 0, call(TN, 8, 8, 8, 0)},
		{"TT 8^3", 0, call(TT, 8, 8, 8, 0)},
		{"NT 32^3", 0, call(NT, 32, 32, 32, 0)},
		{"TN 32^3", 0, call(TN, 32, 32, 32, 0)},
		{"TT 32^3", 0, call(TT, 32, 32, 32, 0)},
	} {
		var err error
		got := bytesPerRun(100, func() { err = pin.run(ctx) })
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		t.Logf("%s: %d bytes per call", pin.name, got)
		if got > pin.max {
			t.Errorf("%s at WithThreads(1) allocates %d bytes per call, pinned at %d", pin.name, got, pin.max)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call, at GOMAXPROCS
// 1.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
