package guard

import (
	"math"
	"strings"
	"testing"
	"time"
)

func withConfig(t *testing.T, c Config) {
	t.Helper()
	prev := Configure(c)
	t.Cleanup(func() { Configure(prev) })
}

func TestConfigDefaults(t *testing.T) {
	withConfig(t, Config{})
	c := Current()
	if c.Cooldown != DefaultCooldown || c.CanaryTarget != DefaultCanaryTarget || c.CanaryStride != DefaultCanaryStride {
		t.Fatalf("defaults = %+v", c)
	}
	withConfig(t, Config{Cooldown: time.Minute, CanaryTarget: 3, CanaryStride: 4})
	c = Current()
	if c.Cooldown != time.Minute || c.CanaryTarget != 3 || c.CanaryStride != 4 {
		t.Fatalf("configured = %+v", c)
	}
}

// The policy drives the full loop when callers pass zero: Trip opens with
// the configured cooldown, Dispatch moves to canary after it expires with
// the configured stride, and the configured target of agreements closes.
func TestPolicyDrivesGuardLoop(t *testing.T) {
	Reset()
	defer Reset()
	withConfig(t, Config{Cooldown: time.Millisecond, CanaryTarget: 2, CanaryStride: 1})
	const plat, kern = "heal-plat", PathF32
	if d, _ := Dispatch(plat, kern, 0); d != DispatchFast {
		t.Fatalf("healthy route = %v", d)
	}
	if !Trip(plat, kern, ReasonPanic, "boom", "NN 8x8x8", 0) {
		t.Fatal("Trip not recorded")
	}
	if d, _ := Dispatch(plat, kern, 0); d != DispatchRef {
		t.Fatalf("open route = %v, want ref", d)
	}
	time.Sleep(3 * time.Millisecond)
	d, began := Dispatch(plat, kern, 0)
	if d != DispatchCanary || !began {
		t.Fatalf("post-cooldown route = %v, began=%v", d, began)
	}
	if d, _ := Dispatch(plat, kern, 0); d != DispatchCanary {
		t.Fatalf("stride-1 probing route = %v, want canary", d)
	}
	if CanaryAgree(plat, kern, 0) {
		t.Fatal("closed before the agreement target")
	}
	if !CanaryAgree(plat, kern, 0) {
		t.Fatal("did not close at the agreement target")
	}
	if StateOf(plat, kern) != StateHealthy {
		t.Fatalf("state = %v after close", StateOf(plat, kern))
	}
}

// A canary mismatch re-opens as a fresh trip with the doubled cooldown.
func TestReportMismatchReopens(t *testing.T) {
	Reset()
	defer Reset()
	withConfig(t, Config{Cooldown: time.Millisecond, CanaryTarget: 8, CanaryStride: 1})
	const plat, kern = "heal-plat", PathF64
	Trip(plat, kern, ReasonPanic, "boom", "", 0)
	time.Sleep(3 * time.Millisecond)
	if d, _ := Dispatch(plat, kern, 0); d != DispatchCanary {
		t.Fatalf("route = %v, want canary", d)
	}
	if !Trip(plat, kern, ReasonCanary, "disagreed", "NN 4x4x4", 0) {
		t.Fatal("mismatch did not re-open")
	}
	d, ok := Demotion(plat, kern)
	if !ok || d.Reason != ReasonCanary || d.Trips != 2 || d.State != StateOpen {
		t.Fatalf("re-opened record = %+v, %v", d, ok)
	}
}

func TestTolerance(t *testing.T) {
	if Tolerance(4) != 1e-4 || Tolerance(8) != 1e-10 {
		t.Fatalf("tolerances = %g / %g", Tolerance(4), Tolerance(8))
	}
}

func TestAgrees(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		got, want []float64
		ok        bool
	}{
		{"exact", []float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, true},
		{"within-tol", []float64{1 + 1e-12, 2, 3, 4}, []float64{1, 2, 3, 4}, true},
		{"outside-tol", []float64{1.1, 2, 3, 4}, []float64{1, 2, 3, 4}, false},
		{"both-nan", []float64{nan, 2, 3, 4}, []float64{nan, 2, 3, 4}, true},
		{"nan-got-only", []float64{nan, 2, 3, 4}, []float64{1, 2, 3, 4}, false},
		{"nan-want-only", []float64{1, 2, 3, 4}, []float64{nan, 2, 3, 4}, false},
		{"both-inf", []float64{math.Inf(1), 2, 3, 4}, []float64{math.Inf(1), 2, 3, 4}, true},
		{"inf-sign-flip", []float64{math.Inf(1), 2, 3, 4}, []float64{math.Inf(-1), 2, 3, 4}, false},
	}
	for _, tc := range cases {
		if got := Agrees(tc.got, 2, tc.want, 2, 2, 2, 1e-10); got != tc.ok {
			t.Errorf("%s: Agrees = %v, want %v", tc.name, got, tc.ok)
		}
	}
	// Strided views: only the first n of each row are compared.
	got := []float64{1, 99, 2, 98}
	want := []float64{1, 2}
	if !Agrees(got, 2, want, 1, 2, 1, 1e-10) {
		t.Fatal("strided comparison read past the row extent")
	}
}

func TestReportRendersBreakersAndHistory(t *testing.T) {
	Reset()
	defer Reset()
	withConfig(t, Config{Cooldown: time.Second, CanaryTarget: 8, CanaryStride: 2})
	var sb strings.Builder
	Health().Write(&sb)
	if !strings.Contains(sb.String(), "none tripped") {
		t.Fatalf("healthy report = %q", sb.String())
	}
	if !Health().Healthy() {
		t.Fatal("fresh registry not Healthy")
	}
	Trip("rep-plat", PathF32, ReasonPanic, "boom", "NN 8x8x8", 0)
	rep := Health()
	if rep.Healthy() {
		t.Fatal("tripped registry reports Healthy")
	}
	sb.Reset()
	rep.Write(&sb)
	out := sb.String()
	for _, want := range []string{"rep-plat", PathF32, "open", "runtime-panic", "NN 8x8x8", "trip history"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
