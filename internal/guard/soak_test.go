package guard_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/faults"
	"libshalom/internal/mat"
)

// TestSoakRandomFaultSchedule hammers the public API under a randomized
// fault schedule and holds it to the self-healing contract:
//
//   - a nil error means a numerically correct result, no matter which
//     faults were armed when the call ran;
//   - a non-nil error is always typed (*StuckWorkerError here — the only
//     prompt-termination path on the non-batch API);
//   - once the schedule stops, every breaker converges back to healthy.
//
// The test is expensive (seconds of wall clock, deliberate 400ms stalls)
// and is gated behind SHALOM_SOAK=1; run it via `make test-soak`.
// SHALOM_SOAK_SEED pins the schedule for reproduction.
func TestSoakRandomFaultSchedule(t *testing.T) {
	if os.Getenv("SHALOM_SOAK") == "" {
		t.Skip("soak disabled; run via `make test-soak` (SHALOM_SOAK=1)")
	}
	seed := time.Now().UnixNano()
	if s := os.Getenv("SHALOM_SOAK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SHALOM_SOAK_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("soak seed %d (set SHALOM_SOAK_SEED to reproduce)", seed)
	rng := rand.New(rand.NewSource(seed))

	faults.Reset()
	libshalom.ResetDegradations()
	defer faults.Reset()
	defer libshalom.ResetDegradations()
	prev := libshalom.ConfigureHealing(libshalom.HealingConfig{
		Cooldown: 15 * time.Millisecond, CanaryTarget: 8, CanaryStride: 1,
	})
	defer libshalom.ConfigureHealing(prev)

	const deadline = 150 * time.Millisecond
	ctx := libshalom.New(
		libshalom.WithThreads(2),
		libshalom.WithNumericGuard(),
		libshalom.WithDeadline(deadline),
		libshalom.WithTelemetry(),
	)

	// Cheap corruption faults arm often; the stuck-worker stall (400ms of
	// real wall clock each) arms rarely.
	cheap := []faults.Point{
		faults.PanicInKernel, faults.CorruptPack, faults.SpuriousNaN,
		faults.SlowWorker, faults.CanaryMismatch,
	}
	dur := 3 * time.Second
	if s := os.Getenv("SHALOM_SOAK_SECONDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SHALOM_SOAK_SECONDS %q: %v", s, err)
		}
		dur = time.Duration(v) * time.Second
	}
	end := time.Now().Add(dur)
	mrng := mat.NewRNG(uint64(seed))
	var calls, stuck, failedOK int
	for time.Now().Before(end) {
		if rng.Intn(4) == 0 {
			faults.Arm(cheap[rng.Intn(len(cheap))], rng.Intn(3)+1)
		}
		if rng.Intn(50) == 0 {
			faults.Arm(faults.StuckWorker, 1)
		}
		m, n, k := 4+rng.Intn(93), 4+rng.Intn(93), 2+rng.Intn(47)
		var beta float64
		if rng.Intn(2) == 0 {
			beta = 0.5
		}
		var err error
		if rng.Intn(2) == 0 {
			err = soakCallF32(t, ctx, mrng, m, n, k, float32(beta))
		} else {
			err = soakCallF64(t, ctx, mrng, m, n, k, beta)
		}
		if err != nil {
			var swe *libshalom.StuckWorkerError
			if !errors.As(err, &swe) {
				t.Fatalf("call %d: untyped error %v (%T)", calls, err, err)
			}
			stuck++ // output buffers were fresh per call; simply abandoned
		} else {
			failedOK++
		}
		calls++
	}
	// At WithThreads(2) a forked call records width 2, a serial one 1.
	th := ctx.Snapshot().Threads
	t.Logf("soak: %d calls, %d correct, %d typed stuck errors, %d forked", calls, failedOK, stuck, th.ChosenSum-th.Calls)
	if calls == 0 {
		t.Fatal("soak made no calls")
	}

	// Schedule over: the runtime must converge back to healthy. Stragglers
	// from stuck errors drain first; then drive probing until every breaker
	// closes. Backoff after repeated trips caps at base<<6 ≈ 1s, so 15s is
	// generous.
	faults.Reset()
	time.Sleep(faults.StuckSleep)
	converge := time.Now().Add(15 * time.Second)
	for !libshalom.Health().Healthy() {
		if time.Now().After(converge) {
			t.Fatalf("breakers never converged to healthy: %+v", libshalom.Health().Breakers)
		}
		time.Sleep(20 * time.Millisecond)
		if err := soakCallF32(t, ctx, mrng, 24, 24, 12, 0); err != nil {
			t.Fatalf("convergence f32 call failed: %v", err)
		}
		if err := soakCallF64(t, ctx, mrng, 24, 24, 12, 0); err != nil {
			t.Fatalf("convergence f64 call failed: %v", err)
		}
	}
	t.Logf("converged healthy: %+v", libshalom.Health().Breakers)
}

// soakCallF32 runs one SGEMM on fresh buffers. nil error ⇒ the result is
// verified against the scalar oracle before returning.
func soakCallF32(t *testing.T, ctx *libshalom.Context, rng *mat.RNG, m, n, k int, beta float32) error {
	t.Helper()
	a := mat.RandomF32(m, k, rng)
	b := mat.RandomF32(k, n, rng)
	c := mat.RandomF32(m, n, rng)
	want := c.Clone()
	mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, a, b, beta, want)
	err := ctx.SGEMM(libshalom.NN, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	if err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g, w := float64(c.At(i, j)), float64(want.At(i, j))
			if math.Abs(g-w) > 1e-3*(1+math.Abs(w)) {
				t.Fatalf("f32 %dx%dx%d beta=%v: C(%d,%d) = %v, want %v", m, n, k, beta, i, j, g, w)
			}
		}
	}
	return nil
}

func soakCallF64(t *testing.T, ctx *libshalom.Context, rng *mat.RNG, m, n, k int, beta float64) error {
	t.Helper()
	a := mat.RandomF64(m, k, rng)
	b := mat.RandomF64(k, n, rng)
	c := mat.RandomF64(m, n, rng)
	want := c.Clone()
	mat.RefGEMMF64(mat.NoTrans, mat.NoTrans, 1, a, b, beta, want)
	err := ctx.DGEMM(libshalom.NN, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
	if err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g, w := c.At(i, j), want.At(i, j)
			if math.Abs(g-w) > 1e-8*(1+math.Abs(w)) {
				t.Fatalf("f64 %dx%dx%d beta=%v: C(%d,%d) = %v, want %v", m, n, k, beta, i, j, g, w)
			}
		}
	}
	return nil
}
