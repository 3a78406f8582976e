package guard

import (
	"strings"
	"testing"
	"time"
)

// The override table's class indexes are telemetry.ShapeClass values,
// which this package's tests cannot import: telemetry imports guard.
const (
	classSmall uint8 = 2
	classLarge uint8 = 4
)

// A set override is visible on the hot-path lookup, replaceable in place,
// and cleared when its breaker trips, and out-of-range keys are rejected.
func TestOverrideSetGetClear(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	ov := TileOverride{MR: 5, NR: 8, KC: 16, Kernel: "tuned-5x8-kc16", Path: MintOverridePath(4, "small")}
	if !SetOverride(4, classSmall, ov) {
		t.Fatal("SetOverride rejected a valid override")
	}
	got, ok := OverrideFor(4, classSmall)
	if !ok || got != ov {
		t.Fatalf("OverrideFor = %+v, %v; want %+v, true", got, ok, ov)
	}
	// A different key on the same element row stays empty.
	if _, ok := OverrideFor(4, classLarge); ok {
		t.Error("unrelated class reports an override")
	}
	// The f64 row is independent of the f32 row.
	if _, ok := OverrideFor(8, classSmall); ok {
		t.Error("f64 row inherited the f32 override")
	}

	// Replacement swaps the tile in place.
	ov2 := TileOverride{MR: 7, NR: 12, KC: 16, Kernel: "tuned-7x12-kc16", Path: MintOverridePath(4, "small")}
	if !SetOverride(4, classSmall, ov2) {
		t.Fatal("SetOverride rejected a replacement")
	}
	if got, _ := OverrideFor(4, classSmall); got != ov2 {
		t.Fatalf("after replace, OverrideFor = %+v, want %+v", got, ov2)
	}
	if n := len(Overrides()); n != 1 {
		t.Fatalf("Overrides() has %d entries after replace, want 1", n)
	}

	// The replaced override's path no longer serves: tripping it leaves
	// the live override in place; tripping the live path clears it.
	Trip("kp920", ov.Path, ReasonCanary, "stale", "", time.Minute)
	if got, _ := OverrideFor(4, classSmall); got != ov2 {
		t.Fatalf("trip on a replaced path evicted the live override: %+v", got)
	}
	Trip("kp920", ov2.Path, ReasonCanary, "evict", "", time.Minute)
	if _, ok := OverrideFor(4, classSmall); ok {
		t.Error("override survived its breaker trip")
	}

	// Out-of-range keys and empty paths are rejected.
	if SetOverride(2, classSmall, ov) {
		t.Error("SetOverride accepted elem size 2")
	}
	if SetOverride(4, 200, ov) {
		t.Error("SetOverride accepted class 200")
	}
	if SetOverride(4, classSmall, TileOverride{MR: 1, NR: 4}) {
		t.Error("SetOverride accepted an override with no breaker path")
	}
	if _, ok := OverrideFor(2, classSmall); ok {
		t.Error("OverrideFor accepted elem size 2")
	}
	if _, ok := OverrideFor(4, 200); ok {
		t.Error("OverrideFor accepted class 200")
	}
}

// Minted paths are unique per call and name the family path and class, so
// every installation probes a clean breaker.
func TestMintOverridePathUnique(t *testing.T) {
	a := MintOverridePath(4, "small")
	b := MintOverridePath(4, "small")
	if a == b {
		t.Fatalf("two mints returned the same path %q", a)
	}
	if !strings.HasPrefix(a, PathFor(4)+"/tuned/small#") {
		t.Fatalf("minted path %q does not carry the family path and class", a)
	}
	if !strings.HasPrefix(MintOverridePath(8, "large"), PathFor(8)+"/tuned/large#") {
		t.Error("f64 mint does not carry the f64 family path")
	}
}

// A trip on a tuned path evicts the override before recording, and the
// Degradation detail names the evicted tuned kernel and tile.
func TestTripEvictsTunedOverride(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	path := MintOverridePath(4, "small")
	ov := TileOverride{MR: 3, NR: 8, KC: 12, Kernel: "tuned-3x8-kc12", Path: path}
	if !SetOverride(4, classSmall, ov) {
		t.Fatal("SetOverride failed")
	}

	if !Trip("kp920", path, ReasonCanary, "injected mismatch", "NN 64x64x64", time.Minute) {
		t.Fatal("Trip on the tuned path was a no-op")
	}
	if _, ok := OverrideFor(4, classSmall); ok {
		t.Error("override still installed after its breaker tripped")
	}
	d, ok := Demotion("kp920", path)
	if !ok {
		t.Fatal("no demotion recorded for the tuned path")
	}
	for _, want := range []string{"tuned-3x8-kc12", "3x8", "kc 12", "injected mismatch"} {
		if !strings.Contains(d.Detail, want) {
			t.Errorf("demotion detail missing %q: %q", want, d.Detail)
		}
	}

	// A trip on a path with no override records the plain detail.
	if !Trip("kp920", "gemm-f32", ReasonCanary, "plain", "", time.Minute) {
		t.Fatal("plain Trip was a no-op")
	}
	if d, _ := Demotion("kp920", "gemm-f32"); strings.Contains(d.Detail, "tuned kernel") {
		t.Errorf("plain trip detail mentions a tuned kernel: %q", d.Detail)
	}
}

// BeginProbation arms a fresh breaker directly in the probing state, refuses
// pairs pinned open by contract demotions, and Forget retires the record.
func TestBeginProbationAndForget(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	path := MintOverridePath(4, "small")
	if !BeginProbation("kp920", path) {
		t.Fatal("BeginProbation refused a fresh pair")
	}
	if s := StateOf("kp920", path); s != StateProbing {
		t.Fatalf("StateOf after BeginProbation = %v, want probing", s)
	}

	// Forget drops the breaker record: the pair reads healthy again.
	Forget("kp920", path)
	if s := StateOf("kp920", path); s != StateHealthy {
		t.Fatalf("StateOf after Forget = %v, want healthy", s)
	}

	// A contract demotion pins the pair open; probation is refused.
	Trip("kp920", path, ReasonContract, "static failure", "", time.Minute)
	if BeginProbation("kp920", path) {
		t.Error("BeginProbation re-armed a contract-pinned breaker")
	}
	if s := StateOf("kp920", path); s != StateOpen {
		t.Fatalf("contract-pinned breaker left %v, want open", s)
	}
}

// ResetOverrides empties the table without touching breaker state.
func TestResetOverrides(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	if !SetOverride(4, classSmall, TileOverride{MR: 2, NR: 4, Kernel: "x", Path: MintOverridePath(4, "small")}) {
		t.Fatal("SetOverride failed")
	}
	if !SetOverride(8, classLarge, TileOverride{MR: 2, NR: 2, Kernel: "y", Path: MintOverridePath(8, "large")}) {
		t.Fatal("SetOverride failed")
	}
	if n := len(Overrides()); n != 2 {
		t.Fatalf("Overrides() has %d entries, want 2", n)
	}
	ResetOverrides()
	if ovs := Overrides(); ovs != nil {
		t.Fatalf("Overrides() after reset = %v, want nil", ovs)
	}
}
