// The chaos suite: every injection point in the registry is armed against
// real driver calls, and the hardened runtime must turn each fault into a
// typed error or a correct degraded result — never a process crash, never a
// silently wrong answer. The suite runs under -race via `make test-chaos`.
package faults_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"libshalom/internal/core"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/journal"
	"libshalom/internal/mat"
	"libshalom/internal/platform"
	"libshalom/internal/router"
	"libshalom/internal/telemetry"
)

type problem struct {
	m, n, k     int
	mode        core.Mode
	alpha, beta float32
	a, b, c     *mat.F32
	want        *mat.F32
}

// newProblem builds a random GEMM problem and its oracle result.
func newProblem(seed uint64, mode core.Mode, m, n, k int) *problem {
	rng := mat.NewRNG(seed)
	p := &problem{m: m, n: n, k: k, mode: mode, alpha: 1.25, beta: 0.5}
	arows, acols := m, k
	if mode.TransA() {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if mode.TransB() {
		brows, bcols = n, k
	}
	p.a = mat.RandomF32(arows, acols, rng)
	p.b = mat.RandomF32(brows, bcols, rng)
	p.c = mat.RandomF32(m, n, rng)
	p.want = p.c.Clone()
	mat.RefGEMMF32(mat.Trans(mode.TransA()), mat.Trans(mode.TransB()),
		p.alpha, p.a, p.b, p.beta, p.want)
	return p
}

// newDriver builds the driver cfg resolves to, as a Context does, and
// releases its pool when the test ends.
func newDriver(t testing.TB, cfg core.Config) *core.Driver {
	d := core.NewDriver(cfg)
	t.Cleanup(d.Close)
	return d
}

func (p *problem) run(d *core.Driver) error {
	return core.SGEMM(d, p.mode, p.m, p.n, p.k, p.alpha,
		p.a.Data, p.a.Stride, p.b.Data, p.b.Stride, p.beta, p.c.Data, p.c.Stride)
}

func (p *problem) assertCorrect(t *testing.T, what string) {
	t.Helper()
	for i := 0; i < p.m; i++ {
		for j := 0; j < p.n; j++ {
			got, want := p.c.At(i, j), p.want.At(i, j)
			if math.Abs(float64(got-want)) > 1e-3*(1+math.Abs(float64(want))) {
				t.Fatalf("%s: C(%d,%d) = %v, want %v", what, i, j, got, want)
			}
		}
	}
}

func resetAll() {
	faults.Reset()
	guard.Reset()
}

// A kernel panic without the numeric guard surfaces as a typed
// *guard.KernelPanicError — on the pooled path and the single-threaded
// path — and the runtime stays fully usable afterwards.
func TestChaosPanicYieldsTypedError(t *testing.T) {
	resetAll()
	defer resetAll()
	for _, threads := range []int{1, 4} {
		faults.Arm(faults.PanicInKernel, 1)
		p := newProblem(1, core.NN, 128, 128, 32)
		err := p.run(newDriver(t, core.Config{Plat: platform.KP920(), Threads: threads}))
		var kpe *guard.KernelPanicError
		if !errors.As(err, &kpe) {
			t.Fatalf("threads=%d: err = %v (%T), want *guard.KernelPanicError", threads, err, err)
		}
		if kpe.Value != faults.InjectedPanicMsg {
			t.Fatalf("threads=%d: panic value = %v", threads, kpe.Value)
		}
		if kpe.Platform != platform.KP920().Name || kpe.Kernel != guard.PathF32 || kpe.Mode != "NN" {
			t.Fatalf("threads=%d: error context = %+v", threads, kpe)
		}
		if len(kpe.Stack) == 0 {
			t.Fatalf("threads=%d: no stack captured", threads)
		}
		if len(guard.List("")) != 0 {
			t.Fatalf("threads=%d: demotion recorded without the guard", threads)
		}
		// The fault is spent; the same runtime must answer correctly now.
		p2 := newProblem(2, core.NN, 128, 128, 32)
		if err := p2.run(newDriver(t, core.Config{Plat: platform.KP920(), Threads: threads})); err != nil {
			t.Fatalf("threads=%d: call after recovered panic failed: %v", threads, err)
		}
		p2.assertCorrect(t, "call after recovered panic")
	}
}

// With the numeric guard, a kernel panic demotes the kernel family and the
// call still answers correctly through the reference path.
func TestChaosPanicDegradesUnderGuard(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.PanicInKernel, 1)
	p := newProblem(3, core.NN, 64, 48, 24)
	drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 1, NumericGuard: true})
	if err := p.run(drv); err != nil {
		t.Fatalf("guarded call returned error: %v", err)
	}
	p.assertCorrect(t, "degraded result after panic")
	d, ok := guard.Demotion(platform.KP920().Name, guard.PathF32)
	if !ok || d.Reason != guard.ReasonPanic {
		t.Fatalf("demotion = %+v, %v; want ReasonPanic", d, ok)
	}
	// Demoted: later calls keep answering (reference path), still correct.
	p2 := newProblem(4, core.TN, 33, 29, 17)
	if err := p2.run(drv); err != nil {
		t.Fatalf("post-demotion call failed: %v", err)
	}
	p2.assertCorrect(t, "post-demotion call")
}

// A corrupted packed-B panel (NaN written into Bc after the packing kernel
// fills it) must be caught by the numeric guard: demote + correct recompute.
// Both packing branches are poisoned: NT always packs B, and NN packs a B
// that exceeds the L1 (128×256 f32 is 128 KiB, Kunpeng 920's L1 64 KiB). In
// both, m > mr guarantees the poisoned panel is consumed by later
// micro-tiles.
func TestChaosCorruptPackDegrades(t *testing.T) {
	defer resetAll()
	for _, tc := range []struct {
		mode    core.Mode
		m, n, k int
	}{
		{core.NT, 32, 24, 16},
		{core.NN, 32, 256, 128},
	} {
		resetAll()
		faults.Arm(faults.CorruptPack, 1)
		p := newProblem(5, tc.mode, tc.m, tc.n, tc.k)
		drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 1, NumericGuard: true})
		if err := p.run(drv); err != nil {
			t.Fatalf("%v: guarded call returned error: %v", tc.mode, err)
		}
		p.assertCorrect(t, tc.mode.String()+" degraded result after pack corruption")
		if d, ok := guard.Demotion(platform.KP920().Name, guard.PathF32); !ok || d.Reason != guard.ReasonNumeric {
			t.Fatalf("%v: demotion = %+v, %v; want ReasonNumeric", tc.mode, d, ok)
		}
	}
}

// A spurious NaN poked into C after the fast path completes must likewise
// demote and be recomputed away.
func TestChaosSpuriousNaNDegrades(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.SpuriousNaN, 1)
	p := newProblem(6, core.NN, 21, 25, 30)
	drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 1, NumericGuard: true})
	if err := p.run(drv); err != nil {
		t.Fatalf("guarded call returned error: %v", err)
	}
	p.assertCorrect(t, "degraded result after spurious NaN")
	if d, ok := guard.Demotion(platform.KP920().Name, guard.PathF32); !ok || d.Reason != guard.ReasonNumeric {
		t.Fatalf("demotion = %+v, %v; want ReasonNumeric", d, ok)
	}
}

// Legitimate NaN inputs must pass through untouched: IEEE propagation is
// the contract, not a fault — no demotion, no recompute.
func TestChaosNaNInputIsNotAFault(t *testing.T) {
	resetAll()
	defer resetAll()
	p := newProblem(7, core.NN, 14, 12, 9)
	p.a.Set(3, 2, float32(math.NaN()))
	drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 1, NumericGuard: true})
	if err := p.run(drv); err != nil {
		t.Fatalf("call with NaN input failed: %v", err)
	}
	if !math.IsNaN(float64(p.c.At(3, 0))) {
		t.Fatal("NaN input did not propagate to C")
	}
	if len(guard.List("")) != 0 {
		t.Fatalf("NaN input caused a demotion: %+v", guard.List(""))
	}
}

// Slow workers perturb scheduling only: the batch must still produce
// correct results for every entry.
func TestChaosSlowWorkerStaysCorrect(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.SlowWorker, 8)
	rng := mat.NewRNG(8)
	const entries = 32
	batch := make([]core.BatchEntry[float32], entries)
	cs := make([]*mat.F32, entries)
	wants := make([]*mat.F32, entries)
	for i := range batch {
		// About 32³ each: the batch's work clears the fork floor, so it runs
		// on the pool, where the slow worker acts.
		m, n, k := 32+i%5, 33+i%4, 31+i%6
		a := mat.RandomF32(m, k, rng)
		b := mat.RandomF32(k, n, rng)
		c := mat.RandomF32(m, n, rng)
		w := c.Clone()
		mat.RefGEMMF32(mat.NoTrans, mat.NoTrans, 1, a, b, 0.25, w)
		cs[i], wants[i] = c, w
		batch[i] = core.BatchEntry[float32]{M: m, N: n, K: k, Alpha: 1,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
			Beta: 0.25, C: c.Data, LDC: c.Stride}
	}
	if err := core.SGEMMBatch(newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4}), core.NN, batch); err != nil {
		t.Fatalf("batch with slow workers failed: %v", err)
	}
	for i := range cs {
		for j := range cs[i].Data {
			got, want := cs[i].Data[j], wants[i].Data[j]
			if math.Abs(float64(got-want)) > 1e-4*(1+math.Abs(float64(want))) {
				t.Fatalf("entry %d element %d = %v, want %v", i, j, got, want)
			}
		}
	}
}

// Slow workers plus cancellation: the batch either finishes or reports
// context.Canceled with accounting that exactly matches the entries whose
// output was written — no partial entries, no lost updates.
func TestChaosSlowWorkerWithCancellation(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.SlowWorker, faults.Unlimited)
	rng := mat.NewRNG(9)
	const entries = 48
	batch := make([]core.BatchEntry[float32], entries)
	cs := make([]*mat.F32, entries)
	before := make([]*mat.F32, entries)
	for i := range batch {
		// 32³ entries: the batch's work clears the fork floor, so it runs
		// on the pool, where the slow worker acts.
		m, n, k := 32, 32, 32
		a := mat.RandomF32(m, k, rng)
		b := mat.RandomF32(k, n, rng)
		c := mat.RandomF32(m, n, rng)
		cs[i], before[i] = c, c.Clone()
		batch[i] = core.BatchEntry[float32]{M: m, N: n, K: k, Alpha: 1,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
			Beta: 0.5, C: c.Data, LDC: c.Stride}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	err := core.SGEMMBatchCtx(ctx, newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4}), core.NN, batch)
	touched := 0
	for i := range cs {
		for j := range cs[i].Data {
			if cs[i].Data[j] != before[i].Data[j] {
				touched++
				break
			}
		}
	}
	if err == nil {
		if touched != entries {
			t.Fatalf("nil error but %d/%d entries ran", touched, entries)
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var bce *core.BatchCancelError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %T, want *BatchCancelError", err)
	}
	if bce.Completed != touched {
		t.Fatalf("accounting says %d, but %d entries were written", bce.Completed, touched)
	}
}

// Telemetry contract of the chaos machinery: every injection point, fired
// exactly once against a telemetry-enabled guarded call, must emit exactly
// one fault event under its own name, and the call must land in the
// snapshot under the outcome label the fault implies — no double counting,
// no lost events, no mislabelled outcomes. Every registered point must have
// a scenario here; adding a point without one fails the suite.
func TestChaosTelemetryOneEventPerInjection(t *testing.T) {
	type scenario struct {
		outcome string
		// setup prepares runtime state the point needs to fire (e.g. a
		// probing breaker for CanaryMismatch) and returns its cleanup.
		setup func() func()
		// run replaces the default guarded GEMM call for points that fire
		// off the compute path; it must fire the armed point exactly once
		// against tel. The generic call/degradation assertions are skipped —
		// only the one-fault-event contract is checked.
		run func(t *testing.T, tel *telemetry.Recorder)
	}
	scenarios := map[faults.Point]scenario{
		faults.PanicInKernel: {outcome: "degraded"}, // guard trips the breaker and recomputes
		faults.CorruptPack:   {outcome: "degraded"},
		faults.SpuriousNaN:   {outcome: "degraded"},
		faults.SlowWorker:    {outcome: "ok"}, // scheduling perturbation only
		// A stuck worker without a configured deadline is a delay, not a
		// failure: the call completes, slowly but correctly.
		faults.StuckWorker: {outcome: "ok"},
		// CanaryMismatch fires only inside a canary comparison, so the
		// breaker must be probing when the call runs: trip it with a
		// microscopic cooldown and wait the cooldown out.
		faults.CanaryMismatch: {outcome: "degraded", setup: func() func() {
			prev := guard.Configure(guard.Config{Cooldown: time.Millisecond, CanaryStride: 1})
			guard.Trip(platform.KP920().Name, guard.PathF32, guard.ReasonPanic, "chaos setup", "", 0)
			time.Sleep(5 * time.Millisecond)
			return func() { guard.Configure(prev) }
		}},
		// SlowShapeClass is the attribution drift detector's chaos seed: it
		// stretches the matching class's calls (the default guarded problem
		// classifies as "small") without touching results, so the outcome
		// stays ok and exactly one fault event must surface.
		faults.SlowShapeClass: {outcome: "ok", setup: func() func() {
			faults.SetSlowClass(uint8(telemetry.ShapeSmall), time.Millisecond)
			return func() { faults.SetSlowClass(0, 0) }
		}},
		// TunerBadCandidate fires only while a tuned dispatch override is
		// serving its canary, and its trip lands on the candidate's private
		// breaker path rather than the kernel family's — so it runs as its
		// own scenario: install a candidate tile for the guarded problem's
		// shape class behind a probing breaker (stride 1 so the first call
		// canaries), then assert the injected wrong result was caught by the
		// reference shadow and the incident recorded against the tuned path.
		// TestChaosTunerBadCandidateRevertsToIncumbent covers the rest of
		// the revert contract.
		faults.TunerBadCandidate: {run: func(t *testing.T, tel *telemetry.Recorder) {
			prev := guard.Configure(guard.Config{CanaryStride: 1})
			defer guard.Configure(prev)
			class := uint8(telemetry.ClassifyShape(64, 36, 16))
			path := guard.MintOverridePath(4, telemetry.ShapeClass(class).String())
			guard.SetOverride(4, class, guard.TileOverride{
				MR: 4, NR: 8, KC: 8, Kernel: "chaos-bad-candidate", Path: path,
			})
			guard.BeginProbation(platform.KP920().Name, path)
			p := newProblem(uint64(30+faults.TunerBadCandidate), core.NT, 64, 36, 16)
			drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4, NumericGuard: true, Tel: tel})
			if err := p.run(drv); err != nil {
				t.Fatalf("canaried call errored: %v", err)
			}
			p.assertCorrect(t, "canaried call with injected bad candidate")
			if d, ok := guard.Demotion(platform.KP920().Name, path); !ok || d.Seq == 0 || d.Shape == "" {
				t.Fatalf("tuned-path registry entry = %+v, %v; want shape and seq recorded", d, ok)
			}
		}},
		// JournalTornWrite fires on the journal's append path, not the
		// compute path: a telemetry-enabled writer tears its next record
		// mid-frame and goes sticky-failed — the crash the recovery test
		// then repairs by reopening.
		faults.JournalTornWrite: {run: func(t *testing.T, tel *telemetry.Recorder) {
			w, err := journal.Open(journal.Options{Dir: t.TempDir(), Telemetry: tel})
			if err != nil {
				t.Fatalf("journal.Open: %v", err)
			}
			w.Flush("f32/NN/tiny", 1, 1)
			if err := w.Close(); err == nil {
				t.Fatal("writer survived an injected torn write without a sticky error")
			}
		}},
		// The router points fire on the forward path of internal/router, not
		// the compute path. Each scenario drives one routed request through a
		// single-backend router; the single fire must surface as exactly one
		// fault event and a coherent HTTP verdict.
		faults.RouterConnReset: {run: func(t *testing.T, tel *telemetry.Recorder) {
			// The reset consumes the only attempt the one-backend budget
			// allows, so the request fails over to nothing: 502.
			if code := routerChaosRequest(t, tel, 0); code != http.StatusBadGateway {
				t.Fatalf("status = %d, want 502 after injected reset", code)
			}
		}},
		faults.RouterSlowBackend: {run: func(t *testing.T, tel *telemetry.Recorder) {
			// A slow backend is a delay, not a failure: the forward still
			// lands and the request answers 200.
			if code := routerChaosRequest(t, tel, 0); code != http.StatusOK {
				t.Fatalf("status = %d, want 200 through injected slowness", code)
			}
		}},
		faults.RouterBackendBlackhole: {run: func(t *testing.T, tel *telemetry.Recorder) {
			// A blackholed attempt never answers; the request's deadline must
			// cut it loose as 504 instead of hanging the client.
			if code := routerChaosRequest(t, tel, 80*time.Millisecond); code != http.StatusGatewayTimeout {
				t.Fatalf("status = %d, want 504 from a blackholed backend", code)
			}
		}},
	}
	for _, pt := range faults.Points() {
		sc, ok := scenarios[pt]
		if !ok {
			t.Fatalf("injection point %v has no chaos telemetry scenario", pt)
		}
		t.Run(pt.String(), func(t *testing.T) {
			resetAll()
			defer resetAll()
			if sc.setup != nil {
				defer sc.setup()()
			}
			faults.Arm(pt, 1)
			tel := telemetry.New(telemetry.Options{})
			if sc.run != nil {
				sc.run(t, tel)
				snap := tel.Snapshot()
				if len(snap.Faults) != 1 || snap.Faults[0].Name != pt.String() || snap.Faults[0].Count != 1 {
					t.Fatalf("%v: fault events = %+v, want exactly one %q event", pt, snap.Faults, pt.String())
				}
				return
			}
			// NT with m > mr so a corrupted packed panel is consumed; threads 4
			// and 1.2 MFLOP, enough work for the plan to fork four blocks, so
			// the pool injection sites are on the path.
			p := newProblem(uint64(30+pt), core.NT, 64, 96, 96)
			drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4, NumericGuard: true, Tel: tel})
			if err := p.run(drv); err != nil {
				t.Fatalf("%v: guarded call errored: %v", pt, err)
			}
			p.assertCorrect(t, pt.String()+": guarded call")
			snap := tel.Snapshot()
			if len(snap.Faults) != 1 || snap.Faults[0].Name != pt.String() || snap.Faults[0].Count != 1 {
				t.Fatalf("%v: fault events = %+v, want exactly one %q event", pt, snap.Faults, pt.String())
			}
			if got := snap.CallsTotal(""); got != 1 {
				t.Fatalf("%v: snapshot records %d calls, want 1", pt, got)
			}
			if outcome := snap.Calls[0].Outcome; outcome != sc.outcome {
				t.Fatalf("%v: call outcome = %q, want %q", pt, outcome, sc.outcome)
			}
			if sc.outcome == "degraded" {
				if snap.Calls[0].Kernel != "ref" {
					t.Fatalf("%v: degraded call labelled kernel %q, want \"ref\"", pt, snap.Calls[0].Kernel)
				}
				if len(snap.Degradations) != 1 || snap.Degradations[0].Count != 1 {
					t.Fatalf("%v: degradation events = %+v, want exactly one", pt, snap.Degradations)
				}
				// The guard registry must carry the triggering shape and a
				// non-zero sequence number for the same incident.
				d, ok := guard.Demotion(platform.KP920().Name, guard.PathF32)
				if !ok || d.Seq == 0 || d.Shape == "" {
					t.Fatalf("%v: registry entry = %+v, %v; want shape and seq recorded", pt, d, ok)
				}
			} else if len(snap.Degradations) != 0 {
				t.Fatalf("%v: unexpected degradation events %+v", pt, snap.Degradations)
			}
		})
	}
}

// routerChaosRequest drives one well-formed GEMM request through a router
// over a single stub backend and returns the router's HTTP verdict. timeout
// sets the router's default deadline (zero: none).
func routerChaosRequest(t *testing.T, tel *telemetry.Recorder, timeout time.Duration) int {
	t.Helper()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	}))
	defer stub.Close()
	rt, err := router.New(router.Config{
		Backends:       []string{stub.URL},
		Telemetry:      tel,
		DefaultTimeout: timeout,
	})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	body := strings.NewReader(`{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"alpha":1}` + "\npayload")
	req := httptest.NewRequest(http.MethodPost, "/v1/gemm", body)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Code
}

// The stuck-worker watchdog acceptance: with a configured deadline, a
// stalled worker (StuckSleep = 400ms against a 100ms budget) converts the
// call into a typed *guard.StuckWorkerError well before the stall drains —
// within 2× the budget — instead of hanging the caller.
func TestChaosStuckWorkerConvertsToTypedError(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.StuckWorker, 1)
	const budget = 100 * time.Millisecond
	p := newProblem(50, core.NN, 256, 256, 32)
	done := make(chan error, 1)
	start := time.Now()
	drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4, Deadline: budget})
	go func() {
		done <- p.run(drv)
	}()
	select {
	case err := <-done:
		elapsed := time.Since(start)
		var swe *guard.StuckWorkerError
		if !errors.As(err, &swe) {
			t.Fatalf("err = %v (%T), want *guard.StuckWorkerError", err, err)
		}
		if !swe.Timeout() {
			t.Fatal("StuckWorkerError.Timeout() = false")
		}
		if swe.Budget != budget || swe.Elapsed < budget {
			t.Fatalf("error reports budget %v elapsed %v, want budget %v and elapsed >= budget", swe.Budget, swe.Elapsed, budget)
		}
		if elapsed >= 2*budget {
			t.Fatalf("watchdog took %v, want < 2x the %v budget", elapsed, budget)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stuck worker hung the call past the test cap")
	}
	// Let the stalled straggler drain before the registry reset races it.
	time.Sleep(faults.StuckSleep)
}

// Per-call deadlines propagate into batch execution: entries not started
// when the deadline expires are abandoned with a *BatchCancelError that
// unwraps to context.DeadlineExceeded, and accounting matches the entries
// actually written.
func TestChaosBatchDeadlineExpires(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.SlowWorker, faults.Unlimited)
	rng := mat.NewRNG(51)
	const entries = 64
	batch := make([]core.BatchEntry[float32], entries)
	cs := make([]*mat.F32, entries)
	before := make([]*mat.F32, entries)
	for i := range batch {
		// 32³ entries: the batch's 4.2 MFLOP clear the fork floor, so it
		// runs on the pool, where the deadline and the slow worker act.
		m, n, k := 32, 32, 32
		a := mat.RandomF32(m, k, rng)
		b := mat.RandomF32(k, n, rng)
		c := mat.RandomF32(m, n, rng)
		cs[i], before[i] = c, c.Clone()
		batch[i] = core.BatchEntry[float32]{M: m, N: n, K: k, Alpha: 1,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
			Beta: 0.5, C: c.Data, LDC: c.Stride}
	}
	// Contract verification runs once per platform after a reset, and its
	// first run in a process can outlast the deadline; finish it before the
	// clock starts so the deadline lands in the pooled batch.
	guard.VerifyContracts(platform.KP920())
	tel := telemetry.New(telemetry.Options{})
	drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4, Deadline: 3 * time.Millisecond, Tel: tel})
	err := core.SGEMMBatch(drv, core.NN, batch)
	if q := tel.Snapshot().Pool.TasksQueued; q == 0 {
		t.Fatal("batch never ran on the pool")
	}
	if err == nil {
		return // the machine outran the deadline: legitimate
	}
	var swe *guard.StuckWorkerError
	if errors.As(err, &swe) {
		// The deadline doubles as the per-block watchdog budget, so a chunk
		// that the slow-worker fault stretches past it converts to the
		// typed stuck error instead — also a prompt, typed termination. The
		// straggler may still be writing, so the buffers are not inspected.
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded through the chain", err)
	}
	var bce *core.BatchCancelError
	if !errors.As(err, &bce) {
		t.Fatalf("err = %T, want *BatchCancelError", err)
	}
	touched := 0
	for i := range cs {
		for j := range cs[i].Data {
			if cs[i].Data[j] != before[i].Data[j] {
				touched++
				break
			}
		}
	}
	if bce.Completed != touched {
		t.Fatalf("accounting says %d, but %d entries were written", bce.Completed, touched)
	}
}

// An unguarded injected panic must be labelled outcome "panic" — the error
// path and the metric label tell the same story.
func TestChaosTelemetryPanicOutcome(t *testing.T) {
	resetAll()
	defer resetAll()
	faults.Arm(faults.PanicInKernel, 1)
	tel := telemetry.New(telemetry.Options{})
	p := newProblem(40, core.NN, 64, 48, 24)
	err := p.run(newDriver(t, core.Config{Plat: platform.KP920(), Threads: 1, Tel: tel}))
	var kpe *guard.KernelPanicError
	if !errors.As(err, &kpe) {
		t.Fatalf("err = %v, want *guard.KernelPanicError", err)
	}
	snap := tel.Snapshot()
	if len(snap.Faults) != 1 || snap.Faults[0].Name != faults.PanicInKernel.String() || snap.Faults[0].Count != 1 {
		t.Fatalf("fault events = %+v, want exactly one panic-in-kernel", snap.Faults)
	}
	if got := snap.CallsTotal(""); got != 1 || snap.Calls[0].Outcome != "panic" {
		t.Fatalf("calls = %+v, want one call with outcome \"panic\"", snap.Calls)
	}
	if len(snap.Degradations) != 0 {
		t.Fatalf("unguarded panic recorded degradations: %+v", snap.Degradations)
	}
}

// Sweep: every registered fault point, armed against a guarded threaded
// call, must end in a usable runtime and a correct answer on the very next
// call — the blanket no-crash/no-silent-corruption property.
func TestChaosEveryPointLeavesRuntimeUsable(t *testing.T) {
	for _, pt := range faults.Points() {
		resetAll()
		faults.Arm(pt, 1)
		// 1.2 MFLOP, enough work for the plan to fork four blocks.
		p := newProblem(uint64(10+pt), core.NT, 64, 96, 96)
		drv := newDriver(t, core.Config{Plat: platform.KP920(), Threads: 4, NumericGuard: true})
		if err := p.run(drv); err != nil {
			t.Fatalf("%v: guarded call errored: %v", pt, err)
		}
		p.assertCorrect(t, pt.String()+": guarded call")
		faults.Reset()
		p2 := newProblem(uint64(20+pt), core.NT, 64, 96, 96)
		if err := p2.run(drv); err != nil {
			t.Fatalf("%v: follow-up call errored: %v", pt, err)
		}
		p2.assertCorrect(t, pt.String()+": follow-up call")
	}
	resetAll()
}

// TestChaosTunerBadCandidateRevertsToIncumbent is the autotuner's end-to-end
// chaos property: a numerically wrong candidate that reached the canary gate
// must (1) never hand a wrong result to any caller, (2) trip its private
// breaker — which evicts the dispatch override and restores the incumbent
// tile — and (3) surface exactly one fault event per injection while every
// other kernel path keeps serving fast.
func TestChaosTunerBadCandidateRevertsToIncumbent(t *testing.T) {
	resetAll()
	defer resetAll()
	prevHeal := guard.Configure(guard.Config{CanaryStride: 1})
	defer guard.Configure(prevHeal)

	plat := platform.KP920()
	class := uint8(telemetry.ClassifyShape(64, 36, 16))
	path := guard.MintOverridePath(4, telemetry.ShapeClass(class).String())
	if !guard.SetOverride(4, class, guard.TileOverride{
		MR: 4, NR: 8, KC: 8, Kernel: "chaos-bad-candidate", Path: path,
	}) {
		t.Fatal("SetOverride refused a valid override")
	}
	if !guard.BeginProbation(plat.Name, path) {
		t.Fatal("BeginProbation refused the tuned path")
	}

	tel := telemetry.New(telemetry.Options{})
	faults.Arm(faults.TunerBadCandidate, 1)
	p := newProblem(77, core.NT, 64, 36, 16)
	drv := newDriver(t, core.Config{Plat: plat, Threads: 4, NumericGuard: true, Tel: tel})
	if err := p.run(drv); err != nil {
		t.Fatalf("canaried call errored: %v", err)
	}
	// (1) The caller got the reference-shadow result, not the corruption.
	p.assertCorrect(t, "canaried call with injected bad candidate")

	// (2) The trip evicted the override and opened the candidate's breaker;
	// the demotion history names the tuned kernel identity.
	if ovs := guard.Overrides(); len(ovs) != 0 {
		t.Fatalf("override still installed after trip: %+v", ovs)
	}
	if st := guard.StateOf(plat.Name, path); st != guard.StateOpen {
		t.Fatalf("tuned breaker state = %q, want open", st)
	}
	if st := guard.StateOf(plat.Name, guard.PathF32); st != guard.StateHealthy {
		t.Fatalf("family breaker state = %q, want healthy (only the candidate reverts)", st)
	}
	var evicted bool
	for _, d := range guard.History() {
		if d.Kernel == path && strings.Contains(d.Detail, "chaos-bad-candidate") {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("demotion history does not name the evicted candidate: %+v", guard.History())
	}

	// (3) Exactly one fault event per injection, and the incumbent tile is
	// back: the follow-up call serves on the fast family path.
	snap := tel.Snapshot()
	if len(snap.Faults) != 1 || snap.Faults[0].Name != faults.TunerBadCandidate.String() || snap.Faults[0].Count != 1 {
		t.Fatalf("fault events = %+v, want exactly one %q", snap.Faults, faults.TunerBadCandidate.String())
	}
	p2 := newProblem(78, core.NT, 64, 36, 16)
	if err := p2.run(drv); err != nil {
		t.Fatalf("follow-up call errored: %v", err)
	}
	p2.assertCorrect(t, "follow-up call on the restored incumbent")
	snap = tel.Snapshot()
	if got := snap.KernelCalls("fast"); got != 1 {
		t.Fatalf("follow-up served %d fast calls, want 1 (incumbent restored)", got)
	}
	if got := snap.KernelCalls("tuned"); got != 0 {
		t.Fatalf("tuned kernel served %d calls after eviction, want 0", got)
	}
}
