// Package faults is the reproduction's fault-injection registry: a set of
// named injection points compiled into the execution runtime whose disarmed
// cost is a single atomic load. Tests arm a point with a fire budget, run a
// workload through the public API, and assert the hardened runtime turns
// the fault into a typed error or a correct degraded result — never a
// process crash, never a silently wrong answer. Production code never arms
// a point; the package has no build tags because the disarmed fast path is
// cheap enough to live in the hot loop.
package faults

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site in the execution runtime.
type Point uint8

const (
	// PanicInKernel panics inside the fast-path block computation, standing
	// in for a generated kernel violating memory safety or asserting.
	PanicInKernel Point = iota
	// CorruptPack overwrites the first element of the packed-B panel with
	// NaN right after the driver fills it, standing in for a packing
	// kernel writing garbage.
	CorruptPack
	// SlowWorker delays a worker task by ~1ms, standing in for a stalled
	// core or a noisy neighbour; it perturbs scheduling, never results.
	SlowWorker
	// SpuriousNaN pokes NaN into the C block after the fast path completes,
	// standing in for a kernel computing a wrong non-finite value.
	SpuriousNaN
	// CanaryMismatch forces a canary comparison to disagree while a circuit
	// breaker is probing, standing in for a fast path that is still wrong
	// after its cooldown; the shadow reference result rescues the call and
	// the breaker re-opens with a doubled cooldown.
	CanaryMismatch
	// StuckWorker stalls a worker task for StuckSleep (hundreds of
	// milliseconds — far past any per-block budget), standing in for a hung
	// core; with a deadline configured the watchdog converts it into a
	// typed guard.StuckWorkerError instead of hanging the caller.
	StuckWorker
	// JournalTornWrite makes the journal writer emit only a prefix of the
	// next record frame and then go sticky-failed, standing in for a power
	// cut mid-write; reopen must truncate the torn tail and resume the
	// chain (the crash-recovery contract of internal/journal).
	JournalTornWrite
	// SlowShapeClass delays every call whose shape class matches the
	// SetSlowClass target, standing in for a kernel that regressed on one
	// workload regime (a bad tile choice, a mistuned blocking). It perturbs
	// timing, never results — the chaos coverage for the attribution
	// engine's drift detector, and the seed the e2e attrib test uses to
	// prove a slow class surfaces as a drift event and tuning candidate.
	SlowShapeClass
	// RouterBackendBlackhole makes the router's forward to a backend hang
	// until the attempt context expires, standing in for a backend whose
	// packets vanish (dead NIC, partitioned rack). The router must hedge
	// the request onto the next-preferred backend instead of stalling the
	// client.
	RouterBackendBlackhole
	// RouterSlowBackend delays the router's forward to a backend by 1 ms,
	// standing in for a congested or GC-pausing node; it perturbs timing,
	// never results — the latency-hedge trigger's chaos coverage.
	RouterSlowBackend
	// RouterConnReset fails the router's forward to a backend with an
	// immediate connection-reset error, standing in for a backend process
	// killed mid-request (the rolling-restart crash case). The request is
	// idempotent, so the router retries it on a survivor.
	RouterConnReset
	// TunerBadCandidate corrupts the tuned fast path's output during a
	// canary-shadowed call on a tuned-override breaker path, standing in for
	// an autotuner candidate that passed every static proof yet computes a
	// wrong answer on live traffic (a modeling gap the proofs cannot see).
	// The canary must catch the disagreement, the shadow reference result
	// must rescue the call (zero wrong answers to clients), and the trip
	// must evict the override, restoring the incumbent tile.
	TunerBadCandidate

	numPoints
)

// String names the point for logs and test failures.
func (p Point) String() string {
	switch p {
	case PanicInKernel:
		return "panic-in-kernel"
	case CorruptPack:
		return "corrupt-pack"
	case SlowWorker:
		return "slow-worker"
	case SpuriousNaN:
		return "spurious-nan"
	case CanaryMismatch:
		return "canary-mismatch"
	case StuckWorker:
		return "stuck-worker"
	case JournalTornWrite:
		return "journal-torn-write"
	case SlowShapeClass:
		return "slow-shape-class"
	case RouterBackendBlackhole:
		return "router-backend-blackhole"
	case RouterSlowBackend:
		return "router-slow-backend"
	case RouterConnReset:
		return "router-conn-reset"
	case TunerBadCandidate:
		return "tuner-bad-candidate"
	}
	return "unknown-fault"
}

// NumPoints is the number of registered injection points, for packages
// (telemetry) that keep a counter per point.
const NumPoints = int(numPoints)

// Points lists every injection point, for suites that iterate the registry.
func Points() []Point {
	return []Point{PanicInKernel, CorruptPack, SlowWorker, SpuriousNaN, CanaryMismatch, StuckWorker, JournalTornWrite, SlowShapeClass, RouterBackendBlackhole, RouterSlowBackend, RouterConnReset, TunerBadCandidate}
}

// InjectedPanicMsg is the panic value used by the PanicInKernel point, so
// tests can recognise their own injection in a KernelPanicError.
const InjectedPanicMsg = "faults: injected kernel panic"

// StuckSleep is how long the StuckWorker point stalls a task: long enough
// that any realistic per-block budget expires first, short enough that a
// test without a watchdog still terminates.
const StuckSleep = 400 * time.Millisecond

// Unlimited arms a point with no fire budget.
const Unlimited = -1

var (
	// armMu serialises every mutation of the registry (Arm/Disarm/Reset and
	// the post-exhaustion refresh), so a refresh scan can never clobber a
	// concurrent Arm's anyArmed.Store(true). Fire and Armed stay lock-free:
	// they only load, and the one Fire that exhausts a budget takes the lock
	// exactly once, off the disarmed fast path.
	armMu sync.Mutex
	// anyArmed short-circuits every hook while the registry is idle.
	anyArmed atomic.Bool
	// counts[p]: 0 disarmed, n>0 fires remaining, Unlimited always fires.
	counts [numPoints]atomic.Int64
)

// Arm enables a point for the given number of fires; times <= 0 arms it
// without a budget (every Fire succeeds until Disarm/Reset).
func Arm(p Point, times int) {
	armMu.Lock()
	defer armMu.Unlock()
	if times <= 0 {
		counts[p].Store(Unlimited)
	} else {
		counts[p].Store(int64(times))
	}
	anyArmed.Store(true)
}

// Disarm disables one point.
func Disarm(p Point) {
	armMu.Lock()
	defer armMu.Unlock()
	counts[p].Store(0)
	refreshAnyArmedLocked()
}

// Reset disarms every point and clears the slow-class target.
func Reset() {
	armMu.Lock()
	defer armMu.Unlock()
	for i := range counts {
		counts[i].Store(0)
	}
	slowClassTarget.Store(0)
	slowClassDelay.Store(0)
	anyArmed.Store(false)
}

// refreshAnyArmedLocked recomputes the registry-idle short-circuit under
// armMu, so the scan-then-store cannot race an Arm.
func refreshAnyArmedLocked() {
	for i := range counts {
		if counts[i].Load() != 0 {
			anyArmed.Store(true)
			return
		}
	}
	anyArmed.Store(false)
}

// Armed reports whether the point would fire, without consuming a fire.
func Armed(p Point) bool {
	return anyArmed.Load() && counts[p].Load() != 0
}

// Fire consumes one fire from the point's budget and reports whether the
// fault should trigger. The disarmed cost is one atomic load.
func Fire(p Point) bool {
	if !anyArmed.Load() {
		return false
	}
	c := &counts[p]
	for {
		v := c.Load()
		if v == 0 {
			return false
		}
		if v == Unlimited {
			return true
		}
		if c.CompareAndSwap(v, v-1) {
			if v == 1 {
				armMu.Lock()
				refreshAnyArmedLocked()
				armMu.Unlock()
			}
			return true
		}
	}
}

// SlowShapeClass target configuration. The class index mirrors
// telemetry.ShapeClass (faults cannot import telemetry — telemetry imports
// faults); the driver passes its already-computed class byte.
var (
	slowClassTarget atomic.Uint32
	slowClassDelay  atomic.Int64
)

// SetSlowClass configures the SlowShapeClass point to delay calls of the
// given shape class by d. The point still needs Arm(SlowShapeClass, n) to
// fire; Reset clears the target along with the budgets.
func SetSlowClass(class uint8, d time.Duration) {
	slowClassTarget.Store(uint32(class))
	slowClassDelay.Store(int64(d))
}

// SlowClassFire consumes one SlowShapeClass fire if the point is armed and
// the call's shape class matches the configured target, returning the delay
// the caller should sleep (0 = no fire). Disarmed cost: one atomic load.
func SlowClassFire(class uint8) time.Duration {
	if !anyArmed.Load() {
		return 0
	}
	d := time.Duration(slowClassDelay.Load())
	if d <= 0 || uint32(class) != slowClassTarget.Load() {
		return 0
	}
	if !Fire(SlowShapeClass) {
		return 0
	}
	return d
}
