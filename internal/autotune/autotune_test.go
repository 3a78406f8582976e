package autotune

import (
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"testing"

	"libshalom/internal/core"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/journal"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// resetWorld clears the cross-package globals every test leans on: the
// breaker registry (which also clears the override table) and the heal
// policy.
func resetWorld(t *testing.T) {
	t.Helper()
	guard.Reset()
	prev := heal.Configure(heal.Config{})
	t.Cleanup(func() {
		guard.Reset()
		heal.Configure(prev)
	})
}

func TestSearchWellTunedClass(t *testing.T) {
	resetWorld(t)
	sr := Search(platform.KP920(), 4, telemetry.ShapeSmall)
	if sr.Incumbent.Kernel != "analytic-7x12" {
		t.Fatalf("incumbent = %q, want the analytic solution", sr.Incumbent.Kernel)
	}
	if len(sr.Candidates) == 0 {
		t.Fatal("search found no candidates")
	}
	for i := 1; i < len(sr.Candidates); i++ {
		if sr.Candidates[i].GFLOPS > sr.Candidates[i-1].GFLOPS {
			t.Fatalf("candidates not sorted descending at %d", i)
		}
	}
	// The paper's implicit claim (and tuner.SearchTile's test): the analytic
	// tile is at or within noise of the searched optimum, so a well-tuned
	// class never finds a candidate worth a 10% margin.
	floor := sr.Incumbent.GFLOPS * 1.10
	if best := sr.Candidates[0]; best.GFLOPS >= floor {
		t.Fatalf("candidate %s models %.1f GFLOPS ≥ %.1f — the analytic incumbent should be unbeatable by margin",
			best.Kernel, best.GFLOPS, floor)
	}
	for _, c := range sr.Candidates {
		if c.MR < 1 || c.MR > 7 || c.NR%4 != 0 || c.NR < 4 || c.NR > 12 {
			t.Fatalf("candidate %s outside the f32 family domain", c.Kernel)
		}
	}
}

func TestProveGate(t *testing.T) {
	resetWorld(t)
	sr := Search(platform.KP920(), 4, telemetry.ShapeSmall)
	if err := Prove(platform.KP920(), 4, sr.Candidates[0]); err != nil {
		t.Fatalf("top candidate %s failed the proof gate: %v", sr.Candidates[0].Kernel, err)
	}
	bad := Candidate{MR: 9, NR: 12, KC: 8, Kernel: "tuned-9x12-kc8-pipelined"}
	if err := Prove(platform.KP920(), 4, bad); err == nil {
		t.Fatal("out-of-domain tile passed the proof gate")
	} else if !strings.Contains(err.Error(), "outside family") {
		t.Fatalf("wrong rejection: %v", err)
	}
	srF64 := Search(platform.KP920(), 8, telemetry.ShapeMedium)
	if err := Prove(platform.KP920(), 8, srF64.Candidates[0]); err != nil {
		t.Fatalf("top f64 candidate failed the proof gate: %v", err)
	}
}

// seedDetuned installs a deliberately bad serving tile on (f32, small) —
// the shape the operator's -detune-class flag produces — with a healthy
// breaker so it serves traffic unshadowed.
func seedDetuned(t *testing.T) {
	t.Helper()
	path := guard.MintOverridePath(4, telemetry.ShapeSmall.String())
	if !guard.SetOverride(4, uint8(telemetry.ShapeSmall), guard.TileOverride{
		MR: 1, NR: 4, KC: 8, Kernel: "detuned-1x4", Path: path,
	}) {
		t.Fatal("seeding the detuned override failed")
	}
}

// driveClass runs n guarded f32 GEMM calls on the small-class
// representative shape, giving the canary machinery live traffic.
func driveClass(t *testing.T, tel *telemetry.Recorder, n int) {
	t.Helper()
	m, nn, k := telemetry.RepresentativeShape(telemetry.ShapeSmall)
	rng := rand.New(rand.NewPCG(7, 7))
	a := make([]float32, m*k)
	b := make([]float32, k*nn)
	for i := range a {
		a[i] = float32(rng.Float64()*2 - 1)
	}
	for i := range b {
		b[i] = float32(rng.Float64()*2 - 1)
	}
	cfg := core.Config{Plat: platform.KP920(), Threads: 1, NumericGuard: true, Tel: tel}
	for i := 0; i < n; i++ {
		c := make([]float32, m*nn)
		if err := core.SGEMM(cfg, core.NN, m, nn, k, 1, a, k, b, nn, 0, c, nn); err != nil {
			t.Fatalf("guarded call %d errored: %v", i, err)
		}
	}
}

func TestTuneNowPromotesDetunedClass(t *testing.T) {
	resetWorld(t)
	heal.Configure(heal.Config{CanaryStride: 1})
	seedDetuned(t)

	dir := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	tel := telemetry.New(telemetry.Options{})
	eng := New(Config{Recorder: tel, Platform: platform.KP920(), Journal: jw})
	if err := eng.TuneNow("f32", "small"); err != nil {
		t.Fatalf("TuneNow: %v", err)
	}

	rep := eng.Report()
	if len(rep.Classes) != 1 || rep.Classes[0].State != string(StateCanary) {
		t.Fatalf("after TuneNow report = %+v, want one class in canary", rep.Classes)
	}
	cand := rep.Classes[0]
	if cand.IncumbentKernel != "detuned-1x4" {
		t.Fatalf("incumbent = %q, want the seeded detuned tile", cand.IncumbentKernel)
	}
	if cand.CandidateGFLOPS < cand.IncumbentGFLOPS*(1+rep.Margin) {
		t.Fatalf("candidate %.1f GFLOPS does not clear incumbent %.1f by the margin",
			cand.CandidateGFLOPS, cand.IncumbentGFLOPS)
	}
	ov, ok := guard.OverrideFor(4, uint8(telemetry.ShapeSmall))
	if !ok || ov.Kernel != cand.Kernel {
		t.Fatalf("override = %+v, %v; want the canaried candidate installed", ov, ok)
	}
	if st := guard.StateOf(platform.KP920().Name, ov.Path); st != guard.StateProbing {
		t.Fatalf("candidate breaker = %s, want probing", st)
	}
	snap := tel.Snapshot()
	for _, want := range []string{"search", "proved", "canary"} {
		if got := snap.Metric("libshalom_autotune_events_total", want); got != 1 {
			t.Fatalf("autotune event %q = %v, want 1", want, got)
		}
	}
	if got := snap.Metric("libshalom_autotune_overrides"); got != 1 {
		t.Fatalf("overrides gauge = %v, want 1", got)
	}

	// Live traffic agrees with the reference on every canaried call: the
	// breaker closes at the canary target, and the next Step promotes.
	driveClass(t, tel, int(heal.Current().CanaryTarget)+2)
	if st := guard.StateOf(platform.KP920().Name, ov.Path); st != guard.StateHealthy {
		t.Fatalf("after agreeing canaries breaker = %s, want healthy", st)
	}
	eng.Step()
	rep = eng.Report()
	if rep.Classes[0].State != string(StatePromoted) || rep.Promoted != 1 {
		t.Fatalf("after close report = %+v, want promoted", rep.Classes[0])
	}
	if tel.Snapshot().Metric("libshalom_autotune_events_total", "promoted") != 1 {
		t.Fatal("promoted event not recorded")
	}

	// The journal carries the promotion as a tamper-evident tune record.
	if err := jw.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	events, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatalf("journal read: %v", err)
	}
	var promotes int
	for _, ev := range events {
		if ev.Kind == journal.KindTunePromote {
			promotes++
			if ev.Class != "f32/small" || ev.Kernel != cand.Kernel ||
				int(ev.MR) != cand.MR || int(ev.NR) != cand.NR || int(ev.KC) != cand.KC {
				t.Fatalf("promote record = %+v, want the promoted candidate", ev)
			}
		}
	}
	if promotes != 1 {
		t.Fatalf("journal has %d promote records, want 1", promotes)
	}
}

func TestStepRevertsTrippedCanary(t *testing.T) {
	resetWorld(t)
	heal.Configure(heal.Config{CanaryStride: 1})
	seedDetuned(t)

	dir := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	tel := telemetry.New(telemetry.Options{})
	eng := New(Config{Recorder: tel, Platform: platform.KP920(), Journal: jw})
	if err := eng.TuneNow("f32", "small"); err != nil {
		t.Fatalf("TuneNow: %v", err)
	}
	ov, ok := guard.OverrideFor(4, uint8(telemetry.ShapeSmall))
	if !ok {
		t.Fatal("candidate not installed")
	}

	// A canary mismatch trips the candidate's private breaker, which evicts
	// the override atomically; the next Step books the revert.
	heal.ReportMismatch(platform.KP920().Name, ov.Path, "injected mismatch", "NN 64x64x64")
	if _, still := guard.OverrideFor(4, uint8(telemetry.ShapeSmall)); still {
		t.Fatal("trip did not evict the override")
	}
	eng.Step()
	rep := eng.Report()
	if rep.Classes[0].State != string(StateReverted) || rep.Reverted != 1 {
		t.Fatalf("after trip report = %+v, want reverted", rep.Classes[0])
	}
	if !strings.Contains(rep.Classes[0].Detail, "injected mismatch") {
		t.Fatalf("revert detail = %q, want the trip reason", rep.Classes[0].Detail)
	}
	snap := tel.Snapshot()
	reverted, overrides := snap.Metric("libshalom_autotune_events_total", "reverted"), snap.Metric("libshalom_autotune_overrides")
	if reverted != 1 || overrides != 0 {
		t.Fatalf("reverted events = %v, overrides gauge = %v; want one revert and gauge back to 0", reverted, overrides)
	}
	// The private breaker record is retired: generation-counted paths are
	// never reused, so nothing should linger in the registry.
	if st := guard.StateOf(platform.KP920().Name, ov.Path); st != guard.StateHealthy {
		t.Fatalf("retired breaker = %s, want forgotten (healthy)", st)
	}
	// A second Step is idempotent — no double bookkeeping.
	eng.Step()
	if rep := eng.Report(); rep.Reverted != 1 {
		t.Fatalf("second Step double-booked the revert: %d", rep.Reverted)
	}

	if err := jw.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	events, err := journal.ReadDir(dir)
	if err != nil {
		t.Fatalf("journal read: %v", err)
	}
	var reverts int
	for _, ev := range events {
		if ev.Kind == journal.KindTuneRevert {
			reverts++
			if !strings.Contains(ev.Detail, "injected mismatch") {
				t.Fatalf("revert record detail = %q", ev.Detail)
			}
		}
	}
	if reverts != 1 {
		t.Fatalf("journal has %d revert records, want 1", reverts)
	}
}

func TestWellTunedClassIsRejected(t *testing.T) {
	resetWorld(t)
	tel := telemetry.New(telemetry.Options{})
	eng := New(Config{Recorder: tel, Platform: platform.KP920()})
	if err := eng.TuneNow("f32", "small"); err != nil {
		t.Fatalf("TuneNow: %v", err)
	}
	rep := eng.Report()
	if rep.Classes[0].State != string(StateRejected) || rep.Rejected != 1 {
		t.Fatalf("report = %+v, want rejected (analytic incumbent unbeatable)", rep.Classes[0])
	}
	if guard.Overrides() != nil {
		t.Fatal("a rejected search must install nothing")
	}
	if tel.Snapshot().Metric("libshalom_autotune_events_total", "rejected") != 1 {
		t.Fatal("rejected event not recorded")
	}
}

func TestNilEngineIsInert(t *testing.T) {
	eng := New(Config{})
	if eng != nil {
		t.Fatal("New without a recorder must return nil")
	}
	eng.Start()
	eng.Step()
	eng.Close()
	if rep := eng.Report(); len(rep.Classes) != 0 {
		t.Fatal("nil engine report not empty")
	}
	if err := eng.TuneNow("f32", "small"); err == nil {
		t.Fatal("nil engine TuneNow must refuse")
	}
	rr := httptest.NewRecorder()
	eng.Handler()(rr, httptest.NewRequest("GET", "/tune", nil))
	if rr.Code != 404 {
		t.Fatalf("nil engine /tune = %d, want 404", rr.Code)
	}
}

func TestReportSurfaces(t *testing.T) {
	resetWorld(t)
	heal.Configure(heal.Config{CanaryStride: 1})
	seedDetuned(t)
	tel := telemetry.New(telemetry.Options{})
	eng := New(Config{Recorder: tel, Platform: platform.KP920()})
	if err := eng.TuneNow("f32", "small"); err != nil {
		t.Fatalf("TuneNow: %v", err)
	}

	rr := httptest.NewRecorder()
	eng.Handler()(rr, httptest.NewRequest("GET", "/tune", nil))
	if rr.Code != 200 {
		t.Fatalf("/tune = %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{`"state": "canary"`, `"shape_class": "small"`, `"incumbent_kernel": "detuned-1x4"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/tune body missing %s:\n%s", want, body)
		}
	}

	var sb strings.Builder
	if err := tel.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	expo := sb.String()
	for _, want := range []string{
		`libshalom_autotune_class_state{precision="f32",shape_class="small",state="canary"} 1`,
		`libshalom_autotune_class_incumbent_gflops{precision="f32",shape_class="small",kernel="detuned-1x4"}`,
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition missing %s:\n%s", want, expo)
		}
	}
}
