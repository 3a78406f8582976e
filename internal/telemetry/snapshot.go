package telemetry

import (
	"io"
	"math"
	"slices"
)

// CallStat is the aggregated record of one (precision, mode, shape class,
// kernel, outcome) key with at least one observed call.
type CallStat struct {
	Precision  string `json:"precision"`
	Mode       string `json:"mode"`
	ShapeClass string `json:"shape_class"`
	Kernel     string `json:"kernel"`
	Outcome    string `json:"outcome"`

	Count uint64 `json:"count"`
	// DurNs and Flops are sums over the counted calls; Count>0 calls that
	// never ran (cancelled entries) contribute zero to both.
	DurNs uint64 `json:"dur_ns"`
	Flops uint64 `json:"flops"`
	// LatencyBuckets[i] counts calls with duration in [2^(i-1), 2^i) ns;
	// GFLOPSBuckets[i] counts calls achieving [2^(i-1)/4, 2^i/4) GFLOPS.
	LatencyBuckets [NumLatencyBuckets]uint64 `json:"latency_buckets"`
	GFLOPSBuckets  [NumGFLOPSBuckets]uint64  `json:"gflops_buckets"`
}

// MeanGFLOPS returns the time-weighted mean achieved rate of the key.
func (s CallStat) MeanGFLOPS() float64 {
	if s.DurNs == 0 {
		return 0
	}
	return float64(s.Flops) / float64(s.DurNs)
}

// PoolStats aggregates the worker-pool scheduling gauges.
type PoolStats struct {
	TasksQueued  uint64 `json:"tasks_queued"`
	TasksStarted uint64 `json:"tasks_started"`
	TasksDone    uint64 `json:"tasks_done"`
	// InFlight is a point-in-time gauge: tasks started but not finished.
	InFlight int64 `json:"in_flight"`
	// QueueWaitNs sums the time tasks spent between submission and start;
	// BusyNs sums task execution time (worker utilization = BusyNs over
	// workers × wall time).
	QueueWaitNs uint64 `json:"queue_wait_ns"`
	BusyNs      uint64 `json:"busy_ns"`
}

// ThreadStats exposes the width decisions: how many calls and batches went
// through the policy, the summed requested and chosen widths, and how many
// ran narrower than their request (the §7.4 policy or the work rule).
type ThreadStats struct {
	Calls        uint64 `json:"calls"`
	RequestedSum uint64 `json:"requested_sum"`
	ChosenSum    uint64 `json:"chosen_sum"`
	ClampedCalls uint64 `json:"clamped_calls"`
}

// EventCount is one named event counter (fault point or degradation reason).
type EventCount struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

// Snapshot is a consistent-enough copy of a Recorder's state: counters are
// read atomically, so concurrent calls may be torn across keys but never
// within one, and every completed call is visible to a later snapshot.
type Snapshot struct {
	Calls   []CallStat   `json:"calls"`
	Pool    PoolStats    `json:"pool"`
	Threads ThreadStats  `json:"threads"`
	Faults  []EventCount `json:"faults,omitempty"`
	// Degradations counts demotion events the runtime observed (by reason);
	// the guard registry remains the source of truth for current state.
	Degradations []EventCount `json:"degradations,omitempty"`
	// Heal counts self-healing events: breaker opens/probes/closes, canary
	// runs and verdicts, watchdog conversions and transient retries.
	Heal []EventCount `json:"heal,omitempty"`
	// BreakersOpen/BreakersProbing count the guard registry's open and
	// probing breakers at snapshot time, process-wide: the
	// libshalom_breakers_* gauges of Metrics.
	BreakersOpen    int64 `json:"breakers_open"`
	BreakersProbing int64 `json:"breakers_probing"`
	// TraceSpans/TraceDropped report ring-buffer occupancy: spans ever
	// recorded and spans overwritten by newer ones.
	TraceSpans   uint64 `json:"trace_spans"`
	TraceDropped uint64 `json:"trace_dropped"`
	// Attrib summarises the fine attribution sketch per (precision, mode,
	// shape class, kernel); AttribWindows counts the completed attribution
	// windows (fed back by internal/attrib, zero when no engine is
	// attached).
	Attrib        []AttribStat `json:"attrib,omitempty"`
	AttribWindows uint64       `json:"attrib_windows"`
	// Metrics is every family declared on the recorder — the driver's and
	// those of the subsystems sharing it (server, router, journal,
	// attribution engine, autotuner) — as the registry renders them.
	Metrics []Family `json:"metrics"`
}

// Snapshot aggregates the recorder into an exposition-ready value. A nil
// recorder yields the zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for idx := 0; idx < numKeys; idx++ {
		count := r.calls.cells[idx].v.Load()
		if count == 0 {
			continue
		}
		prec, mode, class, kernel, outcome := unpackKey(idx)
		lat, gf := &r.latency.cells[idx], &r.gflops.cells[idx]
		st := CallStat{
			Precision:  precNames[prec],
			Mode:       modeNames[mode],
			ShapeClass: ShapeClass(class).String(),
			Kernel:     kernelNames[kernel],
			Outcome:    outcomeNames[outcome],
			Count:      count,
			DurNs:      uint64(math.Float64frombits(lat.sum.Load())),
			Flops:      r.flops[idx].Load(),
		}
		for b := range st.LatencyBuckets {
			st.LatencyBuckets[b] = lat.counts[b].Load()
		}
		for b := range st.GFLOPSBuckets {
			st.GFLOPSBuckets[b] = gf.counts[b].Load()
		}
		s.Calls = append(s.Calls, st)
	}
	s.Pool = PoolStats{
		TasksQueued:  r.tasksQueued.v.Load(),
		TasksStarted: r.tasksStarted.v.Load(),
		TasksDone:    r.tasksDone.v.Load(),
		InFlight:     r.inFlight.v.Load(),
		QueueWaitNs:  r.queueWaitNs.v.Load(),
		BusyNs:       r.busyNs.v.Load(),
	}
	s.Threads = ThreadStats{
		Calls:        r.threadCalls.v.Load(),
		RequestedSum: r.threadsReq.v.Load(),
		ChosenSum:    r.threadsChose.v.Load(),
		ClampedCalls: r.clampedCalls.v.Load(),
	}
	s.Faults = eventCounts(r.faultEvents, faultPoints)
	s.Degradations = eventCounts(r.degrEvents, reasonNames)
	s.Heal = eventCounts(r.healEvents, healNames[:])
	s.TraceSpans, s.TraceDropped = r.traceCounts()
	s.Attrib = r.attribSnapshot()
	s.AttribWindows = r.attrib.windows.v.Load()
	s.Metrics = r.Families()
	s.BreakersOpen = int64(s.Metric("libshalom_breakers_open"))
	s.BreakersProbing = int64(s.Metric("libshalom_breakers_probing"))
	return s
}

// eventCounts lists the fired events of a one-label counter family whose
// label values are names.
func eventCounts(v *CounterVec, names []string) []EventCount {
	var out []EventCount
	for i := range v.cells {
		if c := v.cells[i].v.Load(); c > 0 {
			out = append(out, EventCount{Name: names[i], Count: c})
		}
	}
	return out
}

// traceCounts reads the trace ring's recorded and overwritten span counts.
func (r *Recorder) traceCounts() (spans, dropped uint64) {
	if r.trace == nil {
		return 0, 0
	}
	r.trace.mu.Lock()
	defer r.trace.mu.Unlock()
	return r.trace.written, r.trace.written - uint64(len(r.trace.buf))
}

func unpackKey(idx int) (prec, mode, class, kernel, outcome uint8) {
	outcome = uint8(idx % int(numOutcome))
	idx /= int(numOutcome)
	kernel = uint8(idx % int(numKernel))
	idx /= int(numKernel)
	class = uint8(idx % int(numShapeClasses))
	idx /= int(numShapeClasses)
	mode = uint8(idx % numMode)
	idx /= numMode
	prec = uint8(idx)
	return
}

// WritePrometheus renders the snapshot's families in the Prometheus text
// exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error { return WritePrometheus(w, s.Metrics) }

// Metric sums the values of the named family's series whose label values
// begin with labels (every series when labels is empty); a histogram
// series contributes its observation count. Zero when no family has the
// name.
func (s Snapshot) Metric(name string, labels ...string) float64 {
	var total float64
	for _, f := range s.Metrics {
		if f.Name != name {
			continue
		}
		for _, se := range f.Series {
			if len(labels) <= len(se.Labels) && slices.Equal(se.Labels[:len(labels)], labels) {
				total += se.Value
			}
		}
	}
	return total
}

// HealCount returns the count of one named self-healing event (zero when
// the event never fired).
func (s Snapshot) HealCount(name string) uint64 {
	for _, e := range s.Heal {
		if e.Name == name {
			return e.Count
		}
	}
	return 0
}

// KernelCalls sums call counts for one kernel-path label ("fast" or "ref"),
// the counter pair the healing acceptance tests read to prove the fast path
// is measurably back in use after a breaker closes.
func (s Snapshot) KernelCalls(kernel string) uint64 {
	var total uint64
	for _, c := range s.Calls {
		if c.Kernel == kernel {
			total += c.Count
		}
	}
	return total
}

// CallsTotal sums call counts across every key, optionally filtered by
// shape class name ("" matches all).
func (s Snapshot) CallsTotal(shapeClass string) uint64 {
	var total uint64
	for _, c := range s.Calls {
		if shapeClass == "" || c.ShapeClass == shapeClass {
			total += c.Count
		}
	}
	return total
}
