package libshalom_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/mat"
)

// healProblem builds a random FP32 problem and its oracle.
type healProblem struct {
	m, n, k int
	a, b    *mat.F32
	want    *mat.F32
}

func newHealProblem(seed uint64, m, n, k int) *healProblem {
	rng := mat.NewRNG(seed)
	p := &healProblem{m: m, n: n, k: k}
	p.a = mat.RandomF32(m, k, rng)
	p.b = mat.RandomF32(k, n, rng)
	zero := mat.NewF32(m, n)
	p.want = zero.Clone()
	mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, p.a, p.b, 0, p.want)
	return p
}

// run executes the problem on ctx into a fresh C and asserts correctness.
func (p *healProblem) run(t *testing.T, ctx *libshalom.Context, what string) {
	t.Helper()
	c := mat.NewF32(p.m, p.n)
	if err := ctx.SGEMM(libshalom.NN, p.m, p.n, p.k, 1, p.a.Data, p.a.Stride, p.b.Data, p.b.Stride, 0, c.Data, c.Stride); err != nil {
		t.Fatalf("%s: SGEMM failed: %v", what, err)
	}
	for i := 0; i < p.m; i++ {
		for j := 0; j < p.n; j++ {
			got, want := c.At(i, j), p.want.At(i, j)
			if math.Abs(float64(got-want)) > 1e-3*(1+math.Abs(float64(want))) {
				t.Fatalf("%s: C(%d,%d) = %v, want %v", what, i, j, got, want)
			}
		}
	}
}

func resetHealState() {
	faults.Reset()
	libshalom.ResetDegradations()
}

// The full healing loop through the public API: an injected panic is
// retried transparently (correct result, breaker open), cooldown expires,
// eight agreeing canaries close the breaker, and the kernel-path call
// counters prove the fast path is measurably back in use.
func TestHealingLoopEndToEnd(t *testing.T) {
	resetHealState()
	defer resetHealState()
	prev := libshalom.ConfigureHealing(libshalom.HealingConfig{
		Cooldown: 20 * time.Millisecond, CanaryTarget: 8, CanaryStride: 1,
	})
	defer libshalom.ConfigureHealing(prev)

	ctx := libshalom.New(libshalom.WithThreads(1), libshalom.WithTelemetry())
	p := newHealProblem(1, 64, 48, 24)

	// 1. One injected panic: the transient retry answers correctly and the
	// breaker opens.
	faults.Arm(faults.PanicInKernel, 1)
	p.run(t, ctx, "tripping call")
	degr := libshalom.Degradations()
	if len(degr) != 1 || degr[0].State != libshalom.BreakerOpen || degr[0].Reason != libshalom.DegradedPanic {
		t.Fatalf("after trip: degradations = %+v", degr)
	}
	snap := ctx.Snapshot()
	if snap.HealCount("breaker-open") != 1 || snap.HealCount("transient-retry") != 1 {
		t.Fatalf("after trip: heal events = %+v", snap.Heal)
	}
	if snap.BreakersOpen != 1 || snap.BreakersProbing != 0 {
		t.Fatalf("after trip: breaker gauges open %d, probing %d; want 1, 0", snap.BreakersOpen, snap.BreakersProbing)
	}

	// 2. During the cooldown every call runs the reference path — correct,
	// and counted under the "ref" kernel label.
	refBefore := snap.KernelCalls("ref")
	for i := 0; i < 3; i++ {
		p.run(t, ctx, "cooldown call")
	}
	snap = ctx.Snapshot()
	if got := snap.KernelCalls("ref") - refBefore; got < 3 {
		t.Fatalf("cooldown calls on ref = %d, want >= 3", got)
	}

	// 3. After the cooldown, eight agreeing canaries close the breaker.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 8; i++ {
		p.run(t, ctx, "canary call")
		if i == 0 {
			if s := ctx.Snapshot(); s.BreakersOpen != 0 || s.BreakersProbing != 1 {
				t.Fatalf("while canaries run: breaker gauges open %d, probing %d; want 0, 1", s.BreakersOpen, s.BreakersProbing)
			}
		}
	}
	if !libshalom.Health().Healthy() {
		t.Fatalf("breaker did not close after 8 canaries: %+v", libshalom.Health().Breakers)
	}
	snap = ctx.Snapshot()
	if snap.BreakersOpen != 0 || snap.BreakersProbing != 0 {
		t.Fatalf("after close: breaker gauges open %d, probing %d; want 0, 0", snap.BreakersOpen, snap.BreakersProbing)
	}
	if snap.HealCount("breaker-probe") != 1 || snap.HealCount("canary-agree") != 8 || snap.HealCount("breaker-close") != 1 {
		t.Fatalf("healing events = %+v", snap.Heal)
	}
	if snap.HealCount("canary-mismatch") != 0 {
		t.Fatalf("unexpected canary mismatch: %+v", snap.Heal)
	}

	// 4. Healed: the fast path is measurably back in use.
	fastBefore := snap.KernelCalls("fast")
	for i := 0; i < 5; i++ {
		p.run(t, ctx, "healed call")
	}
	snap = ctx.Snapshot()
	if got := snap.KernelCalls("fast") - fastBefore; got < 5 {
		t.Fatalf("healed calls on fast = %d, want >= 5", got)
	}
	// The healed record keeps its trip count; history keeps the trip.
	rep := libshalom.Health()
	if len(rep.Breakers) != 1 || rep.Breakers[0].Trips != 1 || rep.Breakers[0].State != libshalom.BreakerHealthy {
		t.Fatalf("healed breaker record = %+v", rep.Breakers)
	}
	if len(libshalom.DegradationHistory()) != 1 {
		t.Fatalf("history = %+v", libshalom.DegradationHistory())
	}
}

// The breaker gauges read the guard registry, which every Context shares:
// when Context B's canaries close the breaker Context A tripped, both
// contexts read it closed, in their snapshots and in their expositions. A
// scraper renders both expositions throughout, and one kernel path's
// breaker never reads outside [0, 1].
func TestBreakerGaugesReadTheRegistry(t *testing.T) {
	resetHealState()
	defer resetHealState()
	prev := libshalom.ConfigureHealing(libshalom.HealingConfig{
		Cooldown: 20 * time.Millisecond, CanaryTarget: 4, CanaryStride: 1,
	})
	defer libshalom.ConfigureHealing(prev)

	a := libshalom.New(libshalom.WithThreads(1), libshalom.WithTelemetry())
	defer a.Close()
	b := libshalom.New(libshalom.WithThreads(1), libshalom.WithTelemetry())
	defer b.Close()
	contexts := map[string]*libshalom.Context{"A": a, "B": b}
	p := newHealProblem(3, 64, 48, 24)

	// The scraper's count is read only after scraped closes.
	stop, scraped := make(chan struct{}), make(chan struct{})
	scrapes := 0
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, ctx := range contexts {
				open, probing, err := breakerGauges(ctx)
				if err != nil || open < 0 || open > 1 || probing < 0 || probing > 1 {
					t.Errorf("scrape of %s: breaker gauges open %v, probing %v (%v)", name, open, probing, err)
					return
				}
			}
			scrapes++
		}
	}()
	defer func() {
		close(stop)
		<-scraped
		if scrapes == 0 {
			t.Error("the scraper never rendered an exposition")
		}
	}()

	expect := func(when string, open, probing float64) {
		t.Helper()
		for name, ctx := range contexts {
			snap := ctx.Snapshot()
			eo, ep, err := breakerGauges(ctx)
			if err != nil {
				t.Fatalf("%s: exposition of %s: %v", when, name, err)
			}
			if float64(snap.BreakersOpen) != open || float64(snap.BreakersProbing) != probing || eo != open || ep != probing {
				t.Fatalf("%s: %s reads open %d, probing %d (snapshot) and open %v, probing %v (exposition); want %v, %v",
					when, name, snap.BreakersOpen, snap.BreakersProbing, eo, ep, open, probing)
			}
		}
	}

	faults.Arm(faults.PanicInKernel, 1)
	p.run(t, a, "tripping call on A")
	expect("after A's trip", 1, 0)

	time.Sleep(50 * time.Millisecond)
	p.run(t, b, "first canary on B")
	expect("while B's canaries run", 0, 1)
	for i := 1; i < 4; i++ {
		p.run(t, b, "canary call on B")
	}
	if !libshalom.Health().Healthy() {
		t.Fatalf("B's canaries did not close the breaker: %+v", libshalom.Health().Breakers)
	}
	expect("after B's canaries closed it", 0, 0)

	faults.Arm(faults.PanicInKernel, 1)
	p.run(t, a, "second tripping call on A")
	expect("after A's second trip", 1, 0)

	libshalom.ResetDegradations()
	expect("after ResetDegradations", 0, 0)
}

// breakerGauges reads the libshalom_breakers_open and _probing samples of
// ctx's Prometheus exposition.
func breakerGauges(ctx *libshalom.Context) (open, probing float64, err error) {
	var buf bytes.Buffer
	if err := ctx.WritePrometheus(&buf); err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		name, value, _ := strings.Cut(line, " ")
		var into *float64
		switch name {
		case "libshalom_breakers_open":
			into = &open
		case "libshalom_breakers_probing":
			into = &probing
		default:
			continue
		}
		if *into, err = strconv.ParseFloat(value, 64); err != nil {
			return 0, 0, err
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("%d of the 2 breaker gauges in the exposition", found)
	}
	return open, probing, nil
}

// A persistent fault must not heal: the first canary disagrees, the breaker
// re-opens with a doubled cooldown and an incremented trip count — and no
// call ever returns a wrong element.
func TestHealingPersistentFaultReopens(t *testing.T) {
	resetHealState()
	defer resetHealState()
	prev := libshalom.ConfigureHealing(libshalom.HealingConfig{
		Cooldown: 10 * time.Millisecond, CanaryTarget: 8, CanaryStride: 1,
	})
	defer libshalom.ConfigureHealing(prev)

	ctx := libshalom.New(libshalom.WithThreads(1), libshalom.WithTelemetry())
	p := newHealProblem(2, 48, 32, 16)
	faults.Arm(faults.PanicInKernel, faults.Unlimited)
	defer faults.Reset()

	p.run(t, ctx, "tripping call") // trip 1, retried correctly
	time.Sleep(30 * time.Millisecond)
	p.run(t, ctx, "canary call") // canary panics -> mismatch -> reopen
	degr := libshalom.Degradations()
	if len(degr) != 1 || degr[0].State != libshalom.BreakerOpen {
		t.Fatalf("breaker after failed canary = %+v", degr)
	}
	if degr[0].Trips != 2 || degr[0].Reason != libshalom.DegradedCanary {
		t.Fatalf("reopened record = %+v, want trips 2, canary-mismatch reason", degr[0])
	}
	snap := ctx.Snapshot()
	if snap.HealCount("canary-mismatch") != 1 || snap.HealCount("breaker-close") != 0 {
		t.Fatalf("heal events after failed canary = %+v", snap.Heal)
	}
	// Still answering correctly on the reference path.
	p.run(t, ctx, "post-reopen call")
}

// WithDeadline through the public API: a stalled worker surfaces as a typed
// *StuckWorkerError well before the stall drains, never a hang.
func TestDeadlineConvertsStuckWorker(t *testing.T) {
	resetHealState()
	defer resetHealState()
	const budget = 100 * time.Millisecond
	ctx := libshalom.New(libshalom.WithThreads(4), libshalom.WithDeadline(budget))
	faults.Arm(faults.StuckWorker, 1)
	defer faults.Reset()

	rng := mat.NewRNG(3)
	a := mat.RandomF32(256, 32, rng)
	b := mat.RandomF32(32, 256, rng)
	c := mat.NewF32(256, 256)
	done := make(chan error, 1)
	go func() {
		done <- ctx.SGEMM(libshalom.NN, 256, 256, 32, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	}()
	select {
	case err := <-done:
		var swe *libshalom.StuckWorkerError
		if !errors.As(err, &swe) {
			t.Fatalf("err = %v (%T), want *StuckWorkerError", err, err)
		}
		if swe.Budget != budget {
			t.Fatalf("budget in error = %v, want %v", swe.Budget, budget)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadline call hung")
	}
	// Let the stalled straggler drain before the shared pool closes.
	time.Sleep(faults.StuckSleep)
	ctx.Close()
}

// WithoutTransientRetry restores the raw failure surface: an injected
// panic returns *KernelPanicError instead of healing.
func TestWithoutTransientRetrySurfacesPanic(t *testing.T) {
	resetHealState()
	defer resetHealState()
	ctx := libshalom.New(libshalom.WithThreads(1), libshalom.WithoutTransientRetry())
	faults.Arm(faults.PanicInKernel, 1)
	defer faults.Reset()
	rng := mat.NewRNG(4)
	a := mat.RandomF32(32, 16, rng)
	b := mat.RandomF32(16, 24, rng)
	c := mat.NewF32(32, 24)
	err := ctx.SGEMM(libshalom.NN, 32, 24, 16, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	var kpe *libshalom.KernelPanicError
	if !errors.As(err, &kpe) {
		t.Fatalf("err = %v (%T), want *KernelPanicError", err, err)
	}
	if len(libshalom.Degradations()) != 0 {
		t.Fatalf("raw panic tripped a breaker: %+v", libshalom.Degradations())
	}
}

// guard API sanity for the public aliases: the state constants round-trip.
func TestBreakerStateAliases(t *testing.T) {
	if libshalom.BreakerHealthy != guard.StateHealthy || libshalom.BreakerOpen != guard.StateOpen || libshalom.BreakerProbing != guard.StateProbing {
		t.Fatal("breaker state aliases drifted from guard")
	}
}
