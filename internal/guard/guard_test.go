package guard

import (
	"strings"
	"sync"
	"testing"
	"time"

	"libshalom/internal/isa"
	"libshalom/internal/isacheck"
	"libshalom/internal/kernels"
	"libshalom/internal/platform"
)

func TestPathFor(t *testing.T) {
	if PathFor(4) != PathF32 || PathFor(8) != PathF64 {
		t.Fatalf("PathFor: %q / %q", PathFor(4), PathFor(8))
	}
}

func TestDemoteRegistry(t *testing.T) {
	Reset()
	defer Reset()
	if StateOf("KP920", PathF32) != StateHealthy {
		t.Fatal("fresh registry reports a demotion")
	}
	Trip("KP920", PathF32, ReasonNumeric, "NaN out of finite inputs", "", 0)
	Trip("Phytium 2000+", PathF64, ReasonPanic, "index out of range", "", 0)
	if StateOf("KP920", PathF32) != StateOpen || StateOf("KP920", PathF64) != StateHealthy {
		t.Fatal("demotion keyed wrong")
	}
	d, ok := Demotion("KP920", PathF32)
	if !ok || d.Reason != ReasonNumeric {
		t.Fatalf("Demotion = %+v, %v", d, ok)
	}
	// First demotion wins: a later symptom must not mask the root cause.
	Trip("KP920", PathF32, ReasonPanic, "later symptom", "", 0)
	if d, _ := Demotion("KP920", PathF32); d.Reason != ReasonNumeric {
		t.Fatalf("second Trip overwrote the root cause: %+v", d)
	}
	all := List("")
	if len(all) != 2 {
		t.Fatalf("List(\"\") = %d entries, want 2", len(all))
	}
	if all[0].Platform > all[1].Platform {
		t.Fatal("List not sorted")
	}
	one := List("KP920")
	if len(one) != 1 || one[0].Kernel != PathF32 {
		t.Fatalf("List(KP920) = %+v", one)
	}
	Reset()
	if len(List("")) != 0 {
		t.Fatal("Reset left demotions behind")
	}
}

func TestKernelPanicErrorMessage(t *testing.T) {
	e := &KernelPanicError{
		Platform: "KP920", Mode: "NT", Kernel: PathF32,
		I0: 14, J0: 24, M: 7, N: 12, Entry: -1,
		Value: "index out of range",
	}
	msg := e.Error()
	for _, want := range []string{"KP920", "NT", PathF32, "(14,24)", "7x12", "index out of range"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	e.Entry = 3
	if !strings.Contains(e.Error(), "batch entry 3") {
		t.Fatalf("batch entry index missing from %q", e.Error())
	}
}

// A kernel whose emitted program does not match its declared contract must
// demote its runtime path at verification. The broken entry claims a
// non-accumulating main kernel but builds the accumulating one, which the
// footprint pass catches.
func TestVerifyContractsDemotesBrokenKernel(t *testing.T) {
	isacheck.Register(isacheck.Entry{
		Name:   "libshalom/zz-broken-main-7x12-f32",
		Family: "libshalom",
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 4,
			MR: 7, NR: 12, KC: 8,
			LDA: 8, LDB: 12, LDC: 12,
			Accumulate: false,
		},
		Build: func() *isa.Program {
			return kernels.BuildMain(kernels.MainSpec{Elem: 4, MR: 7, NR: 12, KC: 8,
				LDA: 8, LDB: 12, LDC: 12, Accumulate: true, Schedule: kernels.Pipelined})
		},
	})
	Reset()
	defer Reset()
	plat := platform.Phytium2000()
	VerifyContracts(plat)
	d, ok := Demotion(plat.Name, PathF32)
	if !ok {
		t.Fatal("contract-violating kernel did not demote its path")
	}
	if d.Reason != ReasonContract {
		t.Fatalf("reason = %s, want %s", d.Reason, ReasonContract)
	}
	if !strings.Contains(d.Detail, "zz-broken") {
		t.Fatalf("detail %q does not name the failing kernel", d.Detail)
	}
	// Memoised: a second call is a no-op (would re-demote if it re-ran,
	// which the first-wins rule hides).
	VerifyContracts(plat)
	if got := List(plat.Name); len(got) != 1 {
		t.Fatalf("re-verification changed the registry: %+v", got)
	}
	// Reset clears the memo: the next verification runs again and the
	// broken kernel trips anew, as a later demotion.
	Reset()
	VerifyContracts(plat)
	again, ok := Demotion(plat.Name, PathF32)
	if !ok || again.Reason != ReasonContract {
		t.Fatalf("after Reset the broken kernel did not trip again: %+v, %v", again, ok)
	}
	if again.Seq <= d.Seq {
		t.Fatalf("re-verified demotion seq %d, want after the first trip's %d", again.Seq, d.Seq)
	}
}

// The breaker lifecycle: a trip opens the pair and routes to the reference
// path; the cooldown expiry moves it to probing (reported exactly once);
// canary sampling honours the stride; enough consecutive agreements close
// it; and the healed record survives with its trip count.
func TestBreakerLifecycle(t *testing.T) {
	Reset()
	defer Reset()
	const plat, kern = "test-plat", PathF32
	if d, began := Dispatch(plat, kern, 2); d != DispatchFast || began {
		t.Fatalf("healthy dispatch = %v, %v", d, began)
	}
	if !Trip(plat, kern, ReasonPanic, "boom", "NN 8x8x8", time.Millisecond) {
		t.Fatal("first Trip not recorded")
	}
	if StateOf(plat, kern) != StateOpen {
		t.Fatalf("state after trip = %v", StateOf(plat, kern))
	}
	// A second trip while open is a no-op keeping the root cause.
	if Trip(plat, kern, ReasonNumeric, "later symptom", "", time.Millisecond) {
		t.Fatal("Trip while open recorded a second trip")
	}
	if d, _ := Demotion(plat, kern); d.Reason != ReasonPanic || d.Trips != 1 {
		t.Fatalf("open record = %+v", d)
	}
	if _, ok := CooldownUntil(plat, kern); !ok {
		t.Fatal("open breaker reports no cooldown")
	}
	time.Sleep(3 * time.Millisecond)
	d, began := Dispatch(plat, kern, 2)
	if d != DispatchCanary || !began {
		t.Fatalf("post-cooldown dispatch = %v, beganProbe=%v; want canary, true", d, began)
	}
	if StateOf(plat, kern) != StateProbing {
		t.Fatalf("state = %v, want probing", StateOf(plat, kern))
	}
	// Stride 2: the transition call was tick 0 (canary); tick 1 is ref,
	// tick 2 canary again — and beganProbe never repeats.
	if d, began := Dispatch(plat, kern, 2); d != DispatchRef || began {
		t.Fatalf("probing tick 1 = %v, %v; want ref, false", d, began)
	}
	if d, began := Dispatch(plat, kern, 2); d != DispatchCanary || began {
		t.Fatalf("probing tick 2 = %v, %v; want canary, false", d, began)
	}
	// Close after 3 consecutive agreements.
	for i := 0; i < 2; i++ {
		if CanaryAgree(plat, kern, 3) {
			t.Fatalf("breaker closed after %d agreements, target 3", i+1)
		}
	}
	if !CanaryAgree(plat, kern, 3) {
		t.Fatal("breaker did not close at the agreement target")
	}
	if StateOf(plat, kern) != StateHealthy {
		t.Fatalf("healed state = %v", StateOf(plat, kern))
	}
	if d, began := Dispatch(plat, kern, 2); d != DispatchFast || began {
		t.Fatalf("healed dispatch = %v, %v", d, began)
	}
	// Healed pairs leave List but stay in Breakers with their trip count.
	if len(List("")) != 0 {
		t.Fatalf("healed pair still listed: %+v", List(""))
	}
	all := Breakers()
	if len(all) != 1 || all[0].Trips != 1 || all[0].State != StateHealthy {
		t.Fatalf("Breakers() = %+v", all)
	}
	if len(History()) != 1 {
		t.Fatalf("history = %+v, want the one trip", History())
	}
}

// Re-trips double the effective cooldown (exponential backoff, capped).
func TestTripBackoffDoubles(t *testing.T) {
	Reset()
	defer Reset()
	const plat, kern = "test-plat", PathF64
	base := 100 * time.Millisecond
	Trip(plat, kern, ReasonPanic, "first", "", base)
	u1, _ := CooldownUntil(plat, kern)
	d1 := time.Until(u1)
	// Probe, mismatch, re-trip: force the state machine through probing.
	mustProbe(t, plat, kern)
	if !Trip(plat, kern, ReasonCanary, "mismatch", "", base) {
		t.Fatal("re-trip from probing not recorded")
	}
	u2, _ := CooldownUntil(plat, kern)
	d2 := time.Until(u2)
	if d2 < d1+base/2 {
		t.Fatalf("second cooldown %v not ~doubled from %v", d2, d1)
	}
	if d, _ := Demotion(plat, kern); d.Trips != 2 {
		t.Fatalf("trips = %d, want 2", d.Trips)
	}
	for trips, want := range map[int]time.Duration{0: base, 1: base, 3: 4 * base, 7: 64 * base, 50: 64 * base} {
		if got := Backoff(base, trips); got != want {
			t.Errorf("Backoff(%v, %d) = %v, want %v", base, trips, got, want)
		}
	}
	// The cap: trips beyond maxBackoffShift+1 stop growing the window.
	for i := 0; i < 10; i++ {
		mustProbe(t, plat, kern)
		Trip(plat, kern, ReasonCanary, "again", "", base)
	}
	uN, _ := CooldownUntil(plat, kern)
	if time.Until(uN) > base<<maxBackoffShift+base {
		t.Fatalf("cooldown %v exceeds the backoff cap", time.Until(uN))
	}
}

// mustProbe forces an open test breaker into the probing state by expiring
// its cooldown directly (test-only manipulation under the registry lock).
func mustProbe(t *testing.T, plat, kern string) {
	t.Helper()
	mu.Lock()
	br := breakers[key(plat, kern)]
	if br == nil || br.d.State != StateOpen {
		mu.Unlock()
		t.Fatalf("breaker not open: %+v", br)
	}
	br.cooldownUntil = time.Now().Add(-time.Millisecond)
	mu.Unlock()
	if d, _ := Dispatch(plat, kern, 1); d != DispatchCanary {
		t.Fatalf("expired breaker dispatched %v, want canary", d)
	}
}

// Contract demotions never auto-probe: only an operator Reset re-arms them.
func TestContractTripNeverProbes(t *testing.T) {
	Reset()
	defer Reset()
	const plat, kern = "test-plat", PathF32
	Trip(plat, kern, ReasonContract, "bad kernel", "", time.Nanosecond)
	time.Sleep(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if d, began := Dispatch(plat, kern, 1); d != DispatchRef || began {
			t.Fatalf("contract breaker dispatched %v, beganProbe=%v", d, began)
		}
	}
	if _, ok := CooldownUntil(plat, kern); ok {
		t.Fatal("contract breaker reports a cooldown")
	}
}

// Seq is monotonic for the process lifetime: Reset clears the registry but
// never the counter, so post-reset trips continue the global ordering.
func TestSeqMonotonicAcrossReset(t *testing.T) {
	Reset()
	Trip("seq-plat", PathF32, ReasonPanic, "one", "", time.Second)
	d1, _ := Demotion("seq-plat", PathF32)
	Reset()
	if len(List("")) != 0 || len(History()) != 0 {
		t.Fatal("Reset left records behind")
	}
	Trip("seq-plat", PathF32, ReasonPanic, "two", "", time.Second)
	d2, _ := Demotion("seq-plat", PathF32)
	Reset()
	if d2.Seq <= d1.Seq {
		t.Fatalf("seq went %d -> %d across Reset; must stay monotonic", d1.Seq, d2.Seq)
	}
}

// The registry under concurrency: trips, dispatches, canary verdicts, reads
// and resets from many goroutines must stay race-free (run under -race via
// make race) and never deadlock. Probing->healthy and probing->open both
// race hot-path dispatch here.
func TestBreakerConcurrentAccess(t *testing.T) {
	Reset()
	defer Reset()
	plats := []string{"c-p0", "c-p1", "c-p2"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := plats[(g+i)%len(plats)]
				switch i % 7 {
				case 0:
					Trip(p, PathF32, ReasonPanic, "race", "NN 4x4x4", time.Microsecond)
				case 1:
					Dispatch(p, PathF32, 2)
				case 2:
					CanaryAgree(p, PathF32, 2)
				case 3:
					Demotion(p, PathF32)
				case 4:
					List("")
					Breakers()
				case 5:
					StateOf(p, PathF32)
					History()
				case 6:
					if i%97 == 0 {
						Reset()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStuckWorkerErrorMessage(t *testing.T) {
	e := &StuckWorkerError{Task: 3, Budget: 20 * time.Millisecond, Elapsed: 45 * time.Millisecond}
	msg := e.Error()
	for _, want := range []string{"task 3", "45ms", "20ms"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
	if !e.Timeout() {
		t.Fatal("StuckWorkerError.Timeout() = false")
	}
}
