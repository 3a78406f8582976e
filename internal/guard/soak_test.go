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
// The schedule reaches the path it stresses: at least half of its calls run
// on the fast path, every point it arms fires, and a stuck worker comes
// back as a typed error.
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

	// A point is armed with budget 1 and only while every breaker is
	// healthy: one armed while a breaker is open stays armed and fires in
	// that breaker's first canary, so the breakers would never heal. After
	// the breakers heal, arming waits until the runtime has been healthy for
	// as long as it last was not, so the fast path keeps its share of the
	// schedule however far the trip backoff has grown. Each point is armed
	// right before a call that reaches it, so none waits for a path the
	// schedule may not take again: CorruptPack before an NT call, whose B is
	// always packed; the worker points before a call that forks, since they
	// fire only inside pool tasks; and CanaryMismatch together with
	// PanicInKernel, since only a tripped breaker runs canaries. The first
	// forking call on a healthy runtime stalls a worker (400ms of real wall
	// clock), so the watchdog's typed error always comes back.
	points := []faults.Point{faults.PanicInKernel, faults.CorruptPack, faults.SpuriousNaN, faults.CanaryMismatch, faults.SlowWorker, faults.StuckWorker}
	armed := map[faults.Point]bool{}
	arm := func(p faults.Point) {
		faults.Arm(p, 1)
		armed[p] = true
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
	var healthySince, unhealthySince time.Time
	var lastOpen time.Duration
	wasHealthy := true
	for time.Now().Before(end) {
		// A quarter of the shapes come from [64, 128)³, above the fork
		// floor at width 2; half of the calls run NT.
		forks, nt := rng.Intn(4) == 0, rng.Intn(2) == 0
		now, healthy := time.Now(), libshalom.Health().Healthy()
		switch {
		case wasHealthy && !healthy:
			unhealthySince = now
		case !wasHealthy && healthy:
			healthySince, lastOpen = now, now.Sub(unhealthySince)
		}
		wasHealthy = healthy
		if healthy && now.Sub(healthySince) >= lastOpen {
			switch {
			case forks && stuck == 0:
				arm(faults.StuckWorker)
			case rng.Intn(4) == 0:
				p := points[rng.Intn(len(points))]
				switch p {
				case faults.CorruptPack:
					nt = true
				case faults.SlowWorker, faults.StuckWorker:
					forks = true
				case faults.CanaryMismatch:
					arm(faults.PanicInKernel)
				}
				arm(p)
			}
		}
		m, n, k := 4+rng.Intn(93), 4+rng.Intn(93), 2+rng.Intn(47)
		if forks {
			m, n, k = 64+rng.Intn(64), 64+rng.Intn(64), 64+rng.Intn(64)
		}
		mode := libshalom.NN
		if nt {
			mode = libshalom.NT
		}
		var beta float64
		if rng.Intn(2) == 0 {
			beta = 0.5
		}
		var err error
		if rng.Intn(2) == 0 {
			err = soakCallF32(t, ctx, mrng, mode, m, n, k, float32(beta))
		} else {
			err = soakCallF64(t, ctx, mrng, mode, m, n, k, beta)
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
	snap := ctx.Snapshot()
	fast := snap.KernelCalls("fast")
	th := snap.Threads
	t.Logf("soak: %d calls, %d correct, %d on the fast path, %d typed stuck errors, %d forked", calls, failedOK, fast, stuck, th.ChosenSum-th.Calls)
	t.Logf("soak: faults fired %+v; heal events %+v", snap.Faults, snap.Heal)
	if calls == 0 {
		t.Fatal("soak made no calls")
	}
	if 2*fast < uint64(calls) {
		t.Errorf("only %d of %d calls ran on the fast path: the schedule mostly stressed the reference path", fast, calls)
	}
	if stuck == 0 {
		t.Error("no typed *StuckWorkerError came back")
	}

	// Schedule over: the runtime must converge back to healthy. Stragglers
	// from stuck errors drain first; then drive probing until every breaker
	// closes, which also fires a CanaryMismatch armed with the schedule's
	// last trip. Backoff after repeated trips caps at base<<6 ≈ 1s, so 15s
	// is generous.
	time.Sleep(faults.StuckSleep)
	converge := time.Now().Add(15 * time.Second)
	for !libshalom.Health().Healthy() {
		if time.Now().After(converge) {
			t.Fatalf("breakers never converged to healthy: %+v", libshalom.Health().Breakers)
		}
		time.Sleep(20 * time.Millisecond)
		if err := soakCallF32(t, ctx, mrng, libshalom.NN, 24, 24, 12, 0); err != nil {
			t.Fatalf("convergence f32 call failed: %v", err)
		}
		if err := soakCallF64(t, ctx, mrng, libshalom.NN, 24, 24, 12, 0); err != nil {
			t.Fatalf("convergence f64 call failed: %v", err)
		}
	}
	t.Logf("converged healthy: %+v", libshalom.Health().Breakers)
	faults.Reset()
	final := ctx.Snapshot()
	for p := range armed {
		if final.Metric("libshalom_fault_events_total", p.String()) == 0 {
			t.Errorf("%s was armed but never fired: %+v", p, final.Faults)
		}
	}
}

// soakCallF32 runs one SGEMM (NN or NT) on fresh buffers. nil error ⇒ the
// result is verified against the scalar oracle before returning.
func soakCallF32(t *testing.T, ctx *libshalom.Context, rng *mat.RNG, mode libshalom.Mode, m, n, k int, beta float32) error {
	t.Helper()
	a := mat.RandomF32(m, k, rng)
	b, tb := mat.RandomF32(k, n, rng), mat.NoTrans
	if mode.TransB() {
		b, tb = mat.RandomF32(n, k, rng), mat.Transpose
	}
	c := mat.RandomF32(m, n, rng)
	want := c.Clone()
	mat.RefGEMMF32(mat.NoTrans, tb, 1, a, b, beta, want)
	err := ctx.SGEMM(mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
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

func soakCallF64(t *testing.T, ctx *libshalom.Context, rng *mat.RNG, mode libshalom.Mode, m, n, k int, beta float64) error {
	t.Helper()
	a := mat.RandomF64(m, k, rng)
	b, tb := mat.RandomF64(k, n, rng), mat.NoTrans
	if mode.TransB() {
		b, tb = mat.RandomF64(n, k, rng), mat.Transpose
	}
	c := mat.RandomF64(m, n, rng)
	want := c.Clone()
	mat.RefGEMMF64(mat.NoTrans, tb, 1, a, b, beta, want)
	err := ctx.DGEMM(mode, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, beta, c.Data, c.Stride)
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
