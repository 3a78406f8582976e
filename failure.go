package libshalom

import (
	"errors"

	"libshalom/internal/core"
	"libshalom/internal/guard"
)

// Failure behaviour of the hardened runtime. LibShalom never lets a
// misbehaving kernel take down the process: panics inside the execution
// path are recovered and retried once on the reference path (transient
// retry, on by default), a kernel family that keeps misbehaving trips its
// per-(platform, precision) circuit breaker to the portable reference path,
// and — unlike the earlier sticky demotion — the breaker heals itself:
// after a cooldown it probes with canary calls (fast path shadowed by the
// reference, compared element-wise) and re-promotes the fast path once
// enough consecutive canaries agree. See DESIGN.md, "Self-healing model".

// KernelPanicError is returned when a fast-path block computation panics
// under WithoutTransientRetry with the numeric guard off; by default the
// transient retry recomputes the block on the reference path and the call
// succeeds, degraded. The worker recovered, the pool stayed usable, and the
// error carries platform, mode, kernel path, the C block coordinates (plus
// batch entry index, if any) and the stack.
type KernelPanicError = guard.KernelPanicError

// DegradedReason classifies why a kernel path was demoted: a static
// contract violation found at registration verification, a runtime panic,
// or the numeric guard.
type DegradedReason = guard.Reason

// Demotion reasons.
const (
	DegradedContract = guard.ReasonContract
	DegradedPanic    = guard.ReasonPanic
	DegradedNumeric  = guard.ReasonNumeric
	DegradedCanary   = guard.ReasonCanary
)

// BreakerState is a circuit breaker's position in the self-healing state
// machine: healthy (fast path in use) → open (reference path until the
// cooldown expires) → probing (canary verification) → healthy.
type BreakerState = guard.State

// Breaker states.
const (
	BreakerHealthy = guard.StateHealthy
	BreakerOpen    = guard.StateOpen
	BreakerProbing = guard.StateProbing
)

// StuckWorkerError is returned when a call configured WithDeadline finds a
// worker exceeding its per-block budget: remaining blocks are cancelled and
// the call returns this typed error instead of hanging. The output buffer
// must then be treated as undefined. It implements Timeout() for
// net.Error-style checks.
type StuckWorkerError = guard.StuckWorkerError

// Degradation records one demotion of a kernel path to the reference path.
type Degradation = guard.Degradation

// BatchCancelError reports a batch call abandoned on context cancellation,
// with partial-completion accounting. errors.Is(err, context.Canceled)
// (or DeadlineExceeded) sees through it.
type BatchCancelError = core.BatchCancelError

// ErrAliasedBatch is returned when a batch's entries write overlapping C
// storage (checked by CheckSBatchAliasing/CheckDBatchAliasing, and up front
// by batch calls on a Context built WithAliasCheck).
var ErrAliasedBatch = core.ErrAliasedBatch

// BatchCompleted unwraps a batch call's error into per-entry completion
// accounting: done[i] reports whether entry i ran to completion (its C holds
// exactly the uncancelled result; un-done entries' C is untouched). ok is
// true when err is (or wraps) a *BatchCancelError — the partial-completion
// case a serving layer must split into per-request outcomes instead of
// failing the whole batch. A nil err means every entry completed; callers
// handle that case (and non-batch errors) before asking.
func BatchCompleted(err error) (done []bool, ok bool) {
	var bce *BatchCancelError
	if !errors.As(err, &bce) {
		return nil, false
	}
	return bce.Done, true
}

// Degradations lists every kernel path currently demoted to the reference
// path, across all platforms, sorted by (platform, kernel).
func Degradations() []Degradation { return guard.List("") }

// DegradationsFor lists the demotions recorded for one platform.
func DegradationsFor(p *Platform) []Degradation { return guard.List(p.Name) }

// DegradationHistory returns every breaker trip ever recorded, in sequence
// order — the full domino chain across re-opens and resets, where
// Degradations shows only what is degraded right now. Sequence numbers are
// monotonic for the process lifetime and survive ResetDegradations.
func DegradationHistory() []Degradation { return guard.History() }

// ResetDegradations clears the degradation registry and the per-platform
// contract-verification memo, re-promoting every kernel path. Meant for
// tests and for operators re-arming the fast path after an investigated
// incident. Trip sequence numbers are not reset.
func ResetDegradations() { guard.Reset() }

// HealingConfig is the self-healing policy: the base open→probing cooldown
// (doubled per re-trip), how many consecutive agreeing canaries close a
// probing breaker, and what fraction of probing calls pay the canary shadow
// cost. Zero fields select the documented defaults.
type HealingConfig = guard.Config

// ConfigureHealing installs a process-global self-healing policy and
// returns the previous one. Like the breaker registry it governs, the
// policy is shared by every Context.
func ConfigureHealing(c HealingConfig) HealingConfig { return guard.Configure(c) }

// HealthReport is a point-in-time view of the self-healing runtime: the
// active policy, every breaker record (including healed ones, whose trip
// count still drives backoff) and the full trip history.
type HealthReport = guard.Report

// Health assembles the current health report; `shalom-bench info` ends with
// the same view on the command line.
func Health() HealthReport { return guard.Health() }

// CheckSBatchAliasing reports ErrAliasedBatch if two FP32 batch entries
// write overlapping C storage. Adjacent-but-disjoint views of one backing
// array pass.
func CheckSBatchAliasing(batch []SBatchEntry) error { return core.CheckBatchAliasing(batch) }

// CheckDBatchAliasing is the FP64 counterpart of CheckSBatchAliasing.
func CheckDBatchAliasing(batch []DBatchEntry) error { return core.CheckBatchAliasing(batch) }
