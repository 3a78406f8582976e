// Package guard is the dynamic counterpart of internal/isacheck: where
// isacheck proves kernel properties statically, guard defends the execution
// path at runtime. It maintains the per-(platform, kernel-path) circuit
// breaker registry behind LibShalom's fallback chain — a kernel that fails
// its static contract, panics at runtime, trips the numeric guard or loses
// a canary comparison is demoted to the portable reference path and the
// library keeps answering — together with the self-healing policy that
// moves the breakers (policy.go), the canary verdict, and the structured
// error types the hardened runtime surfaces instead of crashing the process.
//
// Demotion is not sticky: each (platform, kernel) pair carries an explicit
// state machine
//
//	healthy → open (demoted) → probing → healthy
//	                 ↑            |
//	                 └── mismatch ┘   (re-open, doubled cooldown)
//
// An open breaker routes every call to the reference path until its
// cooldown expires; it then moves to probing, where the driver shadows a
// bounded fraction of real calls with the reference path and compares the
// results (Agrees). Enough consecutive agreeing canaries close the breaker
// (the fast path is re-promoted); any disagreement re-opens it with an
// exponentially longer cooldown (Backoff). Contract demotions are the
// exception: a kernel that fails static verification never auto-probes —
// only an operator Reset re-arms it.
//
// The design follows the generated-kernel stacks in the related work (Exo,
// the TVM generator family): a fast generated path backed by a verified
// reference, where recovery is proved on live shapes by shadow execution,
// never assumed from the passage of time alone.
package guard

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Reason classifies why a kernel path was demoted to the reference path.
type Reason string

const (
	// ReasonContract: the kernel failed one of the five isacheck passes for
	// the platform at (lazy) registration verification.
	ReasonContract Reason = "contract-violation"
	// ReasonPanic: the fast path panicked at runtime under the guard.
	ReasonPanic Reason = "runtime-panic"
	// ReasonNumeric: the fast path produced NaN/Inf from all-finite inputs.
	ReasonNumeric Reason = "numeric-guard"
	// ReasonCanary: while the breaker was probing, a shadowed canary call
	// disagreed with the reference path.
	ReasonCanary Reason = "canary-mismatch"
)

// Reasons lists every demotion reason, in the order telemetry's
// degradation counter labels them.
var Reasons = [...]Reason{ReasonContract, ReasonPanic, ReasonNumeric, ReasonCanary}

// State is a circuit breaker's position in the self-healing state machine.
type State string

const (
	// StateHealthy: the fast path is in use (breaker closed).
	StateHealthy State = "healthy"
	// StateOpen: the fast path is demoted; every call runs the reference
	// path until the cooldown expires.
	StateOpen State = "open"
	// StateProbing: the cooldown expired; a bounded fraction of calls run
	// the fast path shadowed by the reference path to prove recovery.
	StateProbing State = "probing"
)

// Kernel-path identifiers: the unit of demotion. The driver's fast path is
// a coupled family of micro-kernels (main, packing, edge) per precision, so
// demotion is per precision per platform — one misbehaving member retires
// the whole generated family in favour of the reference path.
const (
	PathF32 = "gemm-f32"
	PathF64 = "gemm-f64"
)

// PathFor maps an element size in bytes to its kernel-path identifier.
func PathFor(elemBytes int) string {
	if elemBytes == 8 {
		return PathF64
	}
	return PathF32
}

// Degradation records one demotion: which kernel path on which platform,
// why, a human-readable detail (first finding, panic message, …), and the
// breaker's self-healing state. Shape and Seq were added for incident
// triage; State, Trips and ReopenedAt for the circuit-breaker model. The
// original fields keep their meaning, so existing consumers are unaffected.
type Degradation struct {
	Platform string `json:"platform"`
	Kernel   string `json:"kernel"`
	Reason   Reason `json:"reason"`
	Detail   string `json:"detail,omitempty"`
	// Shape is the call that triggered this trip, as "MODE MxNxK"
	// (e.g. "NT 64x48x24"); empty for registration-time contract demotions,
	// which no call provoked.
	Shape string `json:"shape,omitempty"`
	// Seq is a process-wide monotonic sequence number: demotion n happened
	// before demotion n+1, whatever platform or kernel they hit — the
	// ordering an operator needs to find the first domino. Seq survives
	// Reset, so post-reset trips never reuse numbers.
	Seq uint64 `json:"seq"`
	// State is the breaker's current position in the healing state machine.
	State State `json:"state,omitempty"`
	// Trips counts how many times this (platform, kernel) pair has tripped
	// over the process lifetime; the re-open cooldown doubles per trip.
	Trips int `json:"trips,omitempty"`
	// ReopenedAt is when the breaker last entered the open state.
	ReopenedAt time.Time `json:"reopened_at,omitempty"`
}

func (d Degradation) String() string {
	s := fmt.Sprintf("#%d %s/%s: %s (%s)", d.Seq, d.Platform, d.Kernel, d.Reason, d.Detail)
	if d.Shape != "" {
		s += fmt.Sprintf(" triggered by %s", d.Shape)
	}
	if d.State != "" && d.State != StateOpen {
		s += fmt.Sprintf(" [%s]", d.State)
	}
	if d.Trips > 1 {
		s += fmt.Sprintf(" (trip %d)", d.Trips)
	}
	return s
}

// maxBackoffShift caps the exponential re-open backoff at base << shift.
const maxBackoffShift = 6

// Backoff is the exponential re-open schedule base << min(trips-1, 6): the
// first trip waits base, each further trip doubles the wait, up to 64×.
// The breakers apply it to their cooldown and the router to its backend
// readmission probes.
func Backoff(base time.Duration, trips int) time.Duration {
	return base << min(max(trips-1, 0), maxBackoffShift)
}

var (
	mu sync.Mutex
	// seq is the process-lifetime monotonic trip counter. Reset deliberately
	// does NOT zero it: an operator re-promotion must not make later trips
	// reuse sequence numbers and scramble first-domino ordering.
	seq uint64
	// breakers is keyed by a composite value type (not a concatenated
	// string) so the per-call Dispatch lookup on the GEMM hot path
	// allocates nothing. Records persist after a breaker closes (state
	// healthy) so repeat offenders keep their trip count and backoff.
	breakers = map[pathKey]*breaker{}
	// history is every trip ever recorded, in Seq order — the full domino
	// chain, not just the first.
	history  []Degradation
	verified = map[string]bool{} // platforms whose contracts were checked
)

type pathKey struct{ platform, kernel string }

func key(platform, kernel string) pathKey { return pathKey{platform, kernel} }

var (
	// observerMu guards observer separately from mu so installing or reading
	// the hook never contends with the hot-path Dispatch lock.
	observerMu sync.Mutex
	observer   func(d Degradation, from, to State)
)

// SetTransitionObserver installs a hook invoked after every breaker trip
// (→ open) and every canary-driven close (probing → healthy), outside the
// registry lock — the journal's event feed. The open → probing transition
// is deliberately not observed: it happens inside the hot-path Dispatch,
// which must not call through a func value (see //shalom:hotpath). A nil fn
// clears the hook. Not intended for concurrent use with in-flight GEMMs;
// install once at process start.
func SetTransitionObserver(fn func(d Degradation, from, to State)) {
	observerMu.Lock()
	observer = fn
	observerMu.Unlock()
}

// notifyTransition invokes the observer, if any. Callers must NOT hold mu:
// the hook may itself query the registry or block on I/O.
func notifyTransition(d Degradation, from, to State) {
	observerMu.Lock()
	fn := observer
	observerMu.Unlock()
	if fn != nil {
		fn(d, from, to)
	}
}

// breaker is the per-(platform, kernel) state machine record, under mu.
type breaker struct {
	d             Degradation
	cooldownUntil time.Time
	noProbe       bool   // contract demotions never auto-probe
	agree         int    // consecutive agreeing canaries while probing
	probeTick     uint64 // canary sampling counter while probing
}

// Trip opens (or re-opens) the breaker for a (platform, kernel) pair and
// reports whether a new trip was recorded. A Trip while the breaker is
// already open is a no-op returning false — concurrent blocks of one call
// demoting the same pair record one trip, and the first reason of each trip
// is the root cause the registry reports. The effective cooldown is
// Backoff(cooldown, trips), where a non-positive cooldown selects the
// configured policy's; contract trips never cool down (static failures need
// a code change, not a retry).
func Trip(platform, kernel string, reason Reason, detail, shape string, cooldown time.Duration) bool {
	if cooldown <= 0 {
		cooldown = Current().Cooldown
	}
	// A trip on a tuned-override path evicts the override first, so the
	// candidate stops serving the instant its breaker opens and the recorded
	// Degradation names the tuned kernel identity it demoted.
	if ov, tuned := takeOverrideByPath(kernel); tuned {
		detail = fmt.Sprintf("tuned kernel %s (tile %dx%d kc %d) reverted: %s",
			ov.Kernel, ov.MR, ov.NR, ov.KC, detail)
	}
	mu.Lock()
	k := key(platform, kernel)
	br := breakers[k]
	if br == nil {
		br = &breaker{d: Degradation{Platform: platform, Kernel: kernel}}
		breakers[k] = br
	}
	if br.d.State == StateOpen {
		mu.Unlock()
		return false
	}
	from := br.d.State
	if from == "" {
		from = StateHealthy
	}
	seq++
	br.d.Reason, br.d.Detail, br.d.Shape = reason, detail, shape
	br.d.Seq = seq
	br.d.State = StateOpen
	br.d.Trips++
	br.d.ReopenedAt = time.Now()
	br.noProbe = reason == ReasonContract
	br.cooldownUntil = br.d.ReopenedAt.Add(Backoff(cooldown, br.d.Trips))
	br.agree, br.probeTick = 0, 0
	history = append(history, br.d)
	d := br.d
	mu.Unlock()
	notifyTransition(d, from, StateOpen)
	return true
}

// Disposition is the routing decision Dispatch takes for one call.
type Disposition uint8

const (
	// DispatchFast: breaker closed — run the generated fast path.
	DispatchFast Disposition = iota
	// DispatchRef: breaker open (or probing off-sample) — run the portable
	// reference path.
	DispatchRef
	// DispatchCanary: breaker probing — run the fast path shadowed by the
	// reference path and compare.
	DispatchCanary
)

// Dispatch is the hot-path routing decision for a (platform, kernel) pair:
// healthy pairs go fast; open pairs go to the reference path until their
// cooldown expires, at which point the breaker moves to probing (reported
// via beganProbe, exactly once per transition); probing pairs send one of
// every stride calls through the canary shadow and the rest to the
// reference path; a non-positive stride selects the configured policy's,
// read only while probing. The healthy-path cost is one mutex acquisition
// and a map lookup, with no allocation.
//
//shalom:hotpath noalloc
func Dispatch(platform, kernel string, stride int) (d Disposition, beganProbe bool) {
	mu.Lock()
	defer mu.Unlock()
	br := breakers[key(platform, kernel)]
	if br == nil || br.d.State == StateHealthy {
		return DispatchFast, false
	}
	if br.d.State == StateOpen {
		if br.noProbe || time.Now().Before(br.cooldownUntil) {
			return DispatchRef, false
		}
		br.d.State = StateProbing
		br.agree, br.probeTick = 0, 0
		beganProbe = true
	}
	if stride < 1 {
		stride = Current().CanaryStride
	}
	tick := br.probeTick
	br.probeTick++
	if tick%uint64(stride) == 0 {
		return DispatchCanary, beganProbe
	}
	return DispatchRef, beganProbe
}

// CanaryAgree records one agreeing canary for a probing breaker and closes
// it (returning true) once target consecutive canaries have agreed; a
// non-positive target selects the configured policy's. The record survives
// closure with its trip count, so a repeat offense resumes the exponential
// backoff where it left off.
func CanaryAgree(platform, kernel string, target int) (closed bool) {
	if target < 1 {
		target = Current().CanaryTarget
	}
	mu.Lock()
	br := breakers[key(platform, kernel)]
	if br == nil || br.d.State != StateProbing {
		mu.Unlock()
		return false
	}
	br.agree++
	if br.agree >= target {
		br.d.State = StateHealthy
		br.agree, br.probeTick = 0, 0
		d := br.d
		mu.Unlock()
		notifyTransition(d, StateProbing, StateHealthy)
		return true
	}
	mu.Unlock()
	return false
}

// StateOf reports the breaker state of a (platform, kernel) pair; pairs
// that never tripped are healthy.
func StateOf(platform, kernel string) State {
	mu.Lock()
	defer mu.Unlock()
	br := breakers[key(platform, kernel)]
	if br == nil {
		return StateHealthy
	}
	return br.d.State
}

// Demotion returns the current degradation for a (platform, kernel) pair;
// ok is false for pairs that are healthy (including healed pairs).
func Demotion(platform, kernel string) (Degradation, bool) {
	mu.Lock()
	defer mu.Unlock()
	br, ok := breakers[key(platform, kernel)]
	if !ok || br.d.State == StateHealthy {
		return Degradation{}, false
	}
	return br.d, true
}

// List returns the currently degraded (open or probing) pairs for one
// platform, or for every platform when platform is empty, sorted by
// (platform, kernel).
func List(platform string) []Degradation {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Degradation, 0, len(breakers))
	for _, br := range breakers {
		if br.d.State == StateHealthy {
			continue
		}
		if platform == "" || br.d.Platform == platform {
			out = append(out, br.d)
		}
	}
	sortByPair(out)
	return out
}

// Breakers returns every breaker record — including healed pairs, whose
// trip count still drives backoff — sorted by (platform, kernel). This is
// the health report's view; List remains the "what is degraded right now"
// view.
func Breakers() []Degradation {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Degradation, 0, len(breakers))
	for _, br := range breakers {
		out = append(out, br.d)
	}
	sortByPair(out)
	return out
}

// History returns every trip ever recorded, in Seq order — the full domino
// chain across re-opens and operator resets.
func History() []Degradation {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Degradation, len(history))
	copy(out, history)
	return out
}

// CooldownUntil reports when an open breaker becomes eligible to probe;
// ok is false when the pair is not open (or never cools down).
func CooldownUntil(platform, kernel string) (t time.Time, ok bool) {
	mu.Lock()
	defer mu.Unlock()
	br, found := breakers[key(platform, kernel)]
	if !found || br.d.State != StateOpen || br.noProbe {
		return time.Time{}, false
	}
	return br.cooldownUntil, true
}

func sortByPair(out []Degradation) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].Kernel < out[j].Kernel
	})
}

// Reset clears every breaker, the trip history and the per-platform
// verification memo, so the next dispatch re-verifies contracts. The seq
// counter is NOT reset: it is monotonic for the process lifetime, so trips
// recorded after an operator re-promotion continue the global ordering.
// Intended for tests and for operators re-promoting kernels after an
// investigated incident.
func Reset() {
	// Overrides go first, outside mu: takeOverrideByPath acquires ovMu
	// before mu, so the registry lock must never be held across ovMu.
	ResetOverrides()
	mu.Lock()
	defer mu.Unlock()
	breakers = map[pathKey]*breaker{}
	history = nil
	verified = map[string]bool{}
}

// KernelPanicError is the structured error the hardened runtime returns
// when a fast-path block computation panics: the pool worker recovers, the
// remaining blocks are cancelled, and the caller receives this instead of a
// process crash.
type KernelPanicError struct {
	Platform string // platform model name
	Mode     string // GEMM mode ("NN", "NT", …)
	Kernel   string // kernel-path identifier (PathF32/PathF64)
	// I0, J0, M, N locate the C sub-block whose computation panicked.
	I0, J0, M, N int
	// Entry is the batch entry index, or -1 for a non-batch call.
	Entry int
	// Value is the recovered panic value; Stack the goroutine stack at the
	// point of recovery.
	Value any
	Stack []byte
}

func (e *KernelPanicError) Error() string {
	where := fmt.Sprintf("block (%d,%d) %dx%d", e.I0, e.J0, e.M, e.N)
	if e.Entry >= 0 {
		where = fmt.Sprintf("batch entry %d, %s", e.Entry, where)
	}
	return fmt.Sprintf("guard: kernel panic on %s/%s mode %s at %s: %v",
		e.Platform, e.Kernel, e.Mode, where, e.Value)
}

// StuckWorkerError is returned when the parallel runtime's watchdog finds a
// worker exceeding its per-block budget (a stalled core, a hung kernel):
// remaining blocks are cancelled and the caller gets this typed error
// instead of hanging. The output buffer must be treated as undefined — the
// stuck goroutine cannot be killed and may still write to it after the
// call returns.
type StuckWorkerError struct {
	// Task is the index of the stuck unit in its pool run.
	Task int
	// Budget is the configured per-block deadline; Elapsed how long the
	// task had been running when the watchdog fired.
	Budget, Elapsed time.Duration
}

func (e *StuckWorkerError) Error() string {
	return fmt.Sprintf("guard: worker stuck on task %d: %v elapsed against a %v budget",
		e.Task, e.Elapsed, e.Budget)
}

// Timeout marks the error as a timeout for net.Error-style checks.
func (e *StuckWorkerError) Timeout() bool { return true }
