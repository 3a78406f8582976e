// Package telemetry is LibShalom's runtime observability layer: an
// always-compiled instrumentation surface the execution path (public API →
// core driver → parallel pool → micro-kernel loop) reports into, costing
// near zero when disabled.
//
// The layer has three parts:
//
//   - Metrics: atomic counters and log-bucketed latency/GFLOPS
//     histograms keyed by (precision, mode, shape class, kernel path,
//     outcome), pool scheduling gauges (queue wait, tasks in flight, worker
//     busy time), thread-policy accounting (requested vs. chosen width,
//     §7.4 clamping), and degradation/fault-injection event counters.
//   - Tracing: per-call phase spans (plan → pack → block loop →
//     micro-kernel batches → barrier, with worker attribution) recorded
//     into a fixed-size ring buffer, exportable as Chrome trace_event JSON
//     loadable in chrome://tracing or Perfetto.
//   - Exposition: one metric-family registry (registry.go) behind the
//     Prometheus text format, the Snapshot, expvar publication, and an
//     HTTP handler (see snapshot.go, http.go). Subsystems sharing a
//     recorder — server, router, journal, attribution, autotuner — declare
//     their own families on it.
//
// The disabled contract: every recording method is a method on *Recorder
// with a nil-receiver fast path, and a nil recorder hands out nil family
// handles that record nothing, so a driver configured without telemetry
// performs zero atomic writes and zero allocations on the hot path.
// shalom-vet's telemetrypure analyzer proves the nil guards; AllocsPerRun
// tests pin the allocations.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"libshalom/internal/faults"
)

// Key dimensions. Values are dense indices into the counter arrays; the
// *Names tables give the label values used in exposition.

// Precisions.
const (
	PrecF32 uint8 = iota
	PrecF64
	numPrec
)

// Kernel paths: the generated fast path, the portable reference path the
// guard demotes to, and the autotuner's per-class tuned-tile path.
const (
	KernelFast uint8 = iota
	KernelRef
	// KernelTuned: the call ran with a promoted autotuner tile override in
	// place of the analytic solution (internal/guard TileOverride).
	KernelTuned
	numKernel
)

// Outcomes of one GEMM call (or one batch entry).
const (
	OutcomeOK uint8 = iota
	OutcomeDegraded
	OutcomePanic
	OutcomeCancelled
	// OutcomeStuck: the watchdog converted a worker exceeding its per-block
	// budget into a guard.StuckWorkerError.
	OutcomeStuck
	numOutcome
)

// numMode mirrors core.Mode's four values (NN/NT/TN/TT); telemetry cannot
// import core (core imports telemetry), so the driver passes uint8(mode).
const numMode = 4

var (
	precNames    = [numPrec]string{"f32", "f64"}
	modeNames    = [numMode]string{"NN", "NT", "TN", "TT"}
	kernelNames  = [numKernel]string{"fast", "ref", "tuned"}
	outcomeNames = [numOutcome]string{"ok", "degraded", "panic", "cancelled", "stuck"}
)

// PrecFor maps an element size in bytes to a precision index.
func PrecFor(elemBytes int) uint8 {
	if elemBytes == 8 {
		return PrecF64
	}
	return PrecF32
}

// numKeys is the size of the dense (precision, mode, class, kernel,
// outcome) key space.
const numKeys = int(numPrec) * numMode * int(numShapeClasses) * int(numKernel) * int(numOutcome)

func keyIndex(prec, mode, class, kernel, outcome uint8) int {
	return ((((int(prec)*numMode+int(mode))*int(numShapeClasses))+int(class))*int(numKernel)+int(kernel))*int(numOutcome) + int(outcome)
}

// Histogram geometry. Latency buckets are log2 on nanoseconds: bucket i
// counts durations in [2^(i-1), 2^i) ns, so le boundaries run 1ns … ~8.8s.
// GFLOPS buckets are log2 on quarter-GFLOPS: bucket i counts rates in
// [2^(i-1)/4, 2^i/4) GFLOPS, so le boundaries run 0.25 … 2048 GFLOPS.
const (
	NumLatencyBuckets = 34
	NumGFLOPSBuckets  = 14
)

// bucketLog2 returns the log-bucket index of v (bits.Len64 without the
// import): the number of bits needed to represent v, clamped to [0, n).
func bucketLog2(v uint64, n int) int {
	b := 0
	for v != 0 {
		v >>= 1
		b++
	}
	if b >= n {
		b = n - 1
	}
	return b
}

// Recorder accumulates metrics and trace spans for one Context. The zero
// value is not useful; call New. A nil *Recorder is the disabled layer:
// every method no-ops without touching memory.
type Recorder struct {
	epoch time.Time // monotonic base for Now()

	// The registry: every family declared on this recorder, in
	// declaration order.
	mu       sync.Mutex
	families []*family

	// Per-(precision, mode, shape class, kernel, outcome) call families.
	calls   *CounterVec
	latency *HistogramVec // nanoseconds
	gflops  *HistogramVec // quarter-GFLOPS
	// flops sums each key's operation counts for the snapshot's mean
	// rates; it has no series of its own.
	flops [numKeys]atomic.Uint64

	// Pool scheduling (fed through the parallel.Observer interface).
	tasksQueued, tasksStarted, tasksDone *Counter
	inFlight                             *Gauge
	queueWaitNs, busyNs                  *Counter

	// Thread-policy accounting (§7.4 clamping visibility).
	threadCalls, threadsReq, threadsChose, clampedCalls *Counter

	// Event counters: fault injections by point, degradations by reason,
	// self-healing events by kind.
	faultEvents, degrEvents, healEvents *CounterVec

	// Breaker state gauges: how many (platform, kernel) breakers this
	// recorder has observed transitioning into the open/probing states and
	// not yet out. The guard registry is the source of truth for current
	// state; these gauges track what flowed through contexts sharing this
	// recorder, for exposition next to the event counters.
	breakersOpen, breakersProbing *Gauge

	// Attribution sketch (read by internal/attrib; see attrib.go).
	attrib attribStats

	callSeq atomic.Uint64 // caller trace-lane allocator

	trace *ring // nil when tracing is disabled
}

// Options configures a Recorder.
type Options struct {
	// TraceEvents is the span ring-buffer capacity; 0 selects the default
	// (8192 spans), negative disables tracing entirely.
	TraceEvents int
}

// callLabels are the call-key dimensions, outermost first, matching
// keyIndex.
var callLabels = []Label{
	{"precision", precNames[:]}, {"mode", modeNames[:]}, {"shape_class", shapeClassNames[:]},
	{"kernel", kernelNames[:]}, {"outcome", outcomeNames[:]},
}

// faultPoints names the fault-injection points, the fault family's label
// values.
var faultPoints = func() []string {
	names := make([]string, faults.NumPoints)
	for p := range names {
		names[p] = faults.Point(p).String()
	}
	return names
}()

// New builds an enabled Recorder with the driver's families declared.
func New(o Options) *Recorder {
	r := &Recorder{epoch: time.Now()}
	n := o.TraceEvents
	if n == 0 {
		n = 8192
	}
	if n > 0 {
		r.trace = newRing(n)
	}

	r.calls = r.CounterVec("libshalom_gemm_calls_total", "GEMM calls by precision, mode, shape class, kernel path and outcome.", callLabels...)
	r.latency = r.HistogramVec("libshalom_gemm_latency_seconds", "GEMM call latency, log2-bucketed.",
		Log2{Buckets: NumLatencyBuckets, Scale: 1e9}, callLabels...)
	r.gflops = r.HistogramVec("libshalom_gemm_gflops", "Achieved GFLOPS per call, log2-bucketed on quarter-GFLOPS.",
		Log2{Buckets: NumGFLOPSBuckets, Scale: 4}, callLabels...)

	r.tasksQueued = r.Counter("libshalom_pool_tasks_queued_total", "Tasks submitted to the worker pool.")
	r.tasksStarted = r.Counter("libshalom_pool_tasks_started_total", "Tasks begun by pool workers.")
	r.tasksDone = r.Counter("libshalom_pool_tasks_done_total", "Tasks completed by pool workers.")
	r.inFlight = r.Gauge("libshalom_pool_tasks_in_flight", "Tasks started but not yet finished.")
	r.queueWaitNs = r.Counter("libshalom_pool_queue_wait_seconds_total_ns", "Summed task queue wait in nanoseconds.")
	r.busyNs = r.Counter("libshalom_pool_worker_busy_seconds_total_ns", "Summed task execution time in nanoseconds.")
	r.threadCalls = r.Counter("libshalom_threads_policy_calls_total", "Calls routed through the thread policy.")
	r.threadsReq = r.Counter("libshalom_threads_requested_total", "Summed requested thread widths.")
	r.threadsChose = r.Counter("libshalom_threads_chosen_total", "Summed chosen thread widths.")
	r.clampedCalls = r.Counter("libshalom_threads_clamped_calls_total", "Calls whose width the small-GEMM policy clamped.")

	r.faultEvents = r.CounterVec("libshalom_fault_events_total", "Fired fault-injection points.", Label{"point", faultPoints})
	r.degrEvents = r.CounterVec("libshalom_degradation_events_total", "Kernel-path demotions observed by the runtime.", Label{"reason", degrNames[:]})
	r.healEvents = r.CounterVec("libshalom_heal_events_total",
		"Self-healing events: breaker lifecycle, canary verdicts, watchdog conversions, transient retries.", Label{"event", healNames[:]})

	r.declareAttrib()
	r.breakersOpen = r.Gauge("libshalom_breakers_open", "Circuit breakers currently open (reference path in use), as observed through this recorder.")
	r.breakersProbing = r.Gauge("libshalom_breakers_probing", "Circuit breakers currently probing (canary re-promotion in progress), as observed through this recorder.")
	r.CounterFunc("libshalom_trace_spans_total", "Phase spans recorded into the trace ring.", nil,
		func(emit Emit) { spans, _ := r.traceCounts(); emit(float64(spans)) })
	r.CounterFunc("libshalom_trace_spans_dropped_total", "Spans overwritten by ring wraparound.", nil,
		func(emit Emit) { _, dropped := r.traceCounts(); emit(float64(dropped)) })
	r.declareRuntime()
	return r
}

// Enabled reports whether the recorder is live.
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns nanoseconds since the recorder's epoch, or 0 when disabled.
// The driver brackets phases with Now()/Span() pairs; the disabled path
// never reads the clock.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// CallTid allocates a trace lane for one public GEMM call. Caller lanes
// start at 1000 so they render apart from worker lanes (1..N); concurrent
// calls rotate over 64 lanes.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) CallTid() int32 {
	if r == nil {
		return 0
	}
	s := r.callSeq.Add(1)
	return int32(1000 + (s-1)%64)
}

// WorkerTid maps a pool worker index to its trace lane; callers pass the
// enclosing call's lane for worker < 0 (the single-threaded path).
func WorkerTid(worker int, callTid int32) int32 {
	if worker < 0 {
		return callTid
	}
	return int32(worker + 1)
}

// CallDone records one completed GEMM call (or batch entry): counter,
// latency histogram, achieved-GFLOPS histogram, and the duration/flop sums
// behind average-rate exposition. start is the Now() taken at call entry;
// flops the 2·M·N·K operation count.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) CallDone(prec, mode, class, kernel, outcome uint8, start int64, flops float64) {
	if r == nil {
		return
	}
	dur := r.Now() - start
	if dur < 1 {
		dur = 1
	}
	idx := keyIndex(prec, mode, class, kernel, outcome)
	r.calls.At(idx).Add(1)
	r.latency.At(idx).Observe(float64(dur))
	r.flops[idx].Add(uint64(flops))
	gf := flops / float64(dur) // flops per ns == GFLOPS
	r.gflops.At(idx).Observe(gf * 4)
	if outcome == OutcomeOK {
		// Attribution sketch: clean completions only — degraded/panicked
		// calls measure the failure path, not the kernel the attribution
		// engine scores against its model prediction.
		ai := AttribKeyIndex(prec, mode, class, kernel)
		r.attrib.calls.At(ai).Add(1)
		r.attrib.durNs[ai].Add(uint64(dur))
		r.attrib.flops[ai].Add(uint64(flops))
		r.attrib.hist[ai][attribBucket(gf)].Add(1)
	}
}

// CallEvent records a call that never ran (e.g. a batch entry abandoned on
// cancellation): counter only, no timing.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) CallEvent(prec, mode, class, kernel, outcome uint8) {
	if r == nil {
		return
	}
	r.calls.At(keyIndex(prec, mode, class, kernel, outcome)).Add(1)
}

// ThreadChoice records the §7.4 thread policy's decision for one call:
// requested is the width the caller asked for (WithThreads, or GOMAXPROCS
// under the automatic policy), chosen what the policy granted.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) ThreadChoice(requested, chosen int) {
	if r == nil {
		return
	}
	r.threadCalls.Add(1)
	r.threadsReq.Add(uint64(requested))
	r.threadsChose.Add(uint64(chosen))
	if chosen < requested {
		r.clampedCalls.Add(1)
	}
}

// Degradation reasons, mirroring guard.Reason (telemetry cannot import
// guard without dragging the static verifier into every binary).
const (
	DegrContract uint8 = iota
	DegrPanic
	DegrNumeric
	DegrCanary
	numDegrReasons
)

var degrNames = [numDegrReasons]string{"contract-violation", "runtime-panic", "numeric-guard", "canary-mismatch"}

// Self-healing event kinds: the circuit-breaker lifecycle and the canary
// protocol, counted per event so the healing loop is observable end to end.
const (
	// HealBreakerOpen: a breaker tripped (healthy→open or probing→open).
	HealBreakerOpen uint8 = iota
	// HealBreakerProbe: an open breaker's cooldown expired (open→probing).
	HealBreakerProbe
	// HealBreakerClose: enough canaries agreed; fast path re-promoted.
	HealBreakerClose
	// HealCanaryRun: one probing call ran the fast path shadowed by the
	// reference path.
	HealCanaryRun
	// HealCanaryAgree / HealCanaryMismatch: the comparison verdicts.
	HealCanaryAgree
	HealCanaryMismatch
	// HealStuckWorker: the watchdog converted a stalled worker into a
	// typed StuckWorkerError.
	HealStuckWorker
	// HealRetry: a transient fault was retried transparently on the
	// reference path (outside the numeric guard's demote-and-recompute).
	HealRetry
	numHealEvents
)

var healNames = [numHealEvents]string{
	"breaker-open", "breaker-probe", "breaker-close",
	"canary-run", "canary-agree", "canary-mismatch",
	"stuck-worker", "transient-retry",
}

// HealEvent counts one self-healing event.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) HealEvent(kind uint8) {
	if r == nil || kind >= numHealEvents {
		return
	}
	r.healEvents.At(int(kind)).Add(1)
}

// Breaker states for BreakerTransition, mirroring guard.State.
const (
	BreakerHealthy uint8 = iota
	BreakerOpen
	BreakerProbing
)

// BreakerTransition moves the breaker state gauges: one breaker left the
// from state and entered the to state.
func (r *Recorder) BreakerTransition(from, to uint8) {
	if r == nil {
		return
	}
	adj := func(state uint8, delta int64) {
		switch state {
		case BreakerOpen:
			r.breakersOpen.Add(delta)
		case BreakerProbing:
			r.breakersProbing.Add(delta)
		}
	}
	adj(from, -1)
	adj(to, 1)
}

// DegradationEvent counts one kernel-path demotion observed by the runtime.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) DegradationEvent(reason uint8) {
	if r == nil || reason >= numDegrReasons {
		return
	}
	r.degrEvents.At(int(reason)).Add(1)
}

// FaultInjected counts one fired fault-injection point. Together with
// TaskQueued/TaskStart/TaskDone it satisfies parallel.Observer, so a
// Recorder plugs directly into the worker pool.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) FaultInjected(p faults.Point) {
	if r == nil || int(p) >= faults.NumPoints {
		return
	}
	r.faultEvents.At(int(p)).Add(1)
}

// TaskQueued records n tasks submitted to the pool.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) TaskQueued(n int) {
	if r == nil {
		return
	}
	r.tasksQueued.Add(uint64(n))
}

// TaskStart records a pool task beginning execution after waiting
// queueWaitNs in the run queue.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) TaskStart(queueWaitNs int64) {
	if r == nil {
		return
	}
	r.tasksStarted.Add(1)
	r.inFlight.Add(1)
	r.queueWaitNs.Add(uint64(queueWaitNs))
}

// TaskDone records a pool task finishing after busyNs of execution.
//
//shalom:hotpath noalloc,nolock,noblock
func (r *Recorder) TaskDone(busyNs int64) {
	if r == nil {
		return
	}
	r.tasksDone.Add(1)
	r.inFlight.Add(-1)
	r.busyNs.Add(uint64(busyNs))
}

// Span records one completed phase span into the trace ring: phase on lane
// tid, begun at the Now() value start, covering an m×n×k extent. No-op when
// the recorder or tracing is disabled.
func (r *Recorder) Span(phase uint8, tid int32, start int64, mode, prec uint8, m, n, k int) {
	if r == nil || r.trace == nil {
		return
	}
	dur := r.Now() - start
	if dur < 1 {
		dur = 1 // clock granularity: keep every span's E strictly after its B
	}
	r.trace.add(event{
		start: start, dur: dur,
		m: int32(m), n: int32(n), k: int32(k),
		tid: tid, phase: phase, mode: mode, prec: prec,
	})
}
