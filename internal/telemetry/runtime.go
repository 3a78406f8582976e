package telemetry

import "runtime/metrics"

// Go runtime gauges for the exposition: the handful a serving dashboard
// actually needs (heap footprint, GC pause tail, goroutine count,
// GOMAXPROCS). Each is sampled from runtime/metrics when a scrape or
// snapshot renders it — reads are cheap but not free, and nothing here may
// touch the GEMM hot path.
var runtimeGauges = []struct {
	name, help, sample string
	value              func(metrics.Sample) float64
}{
	{"libshalom_go_heap_objects_bytes", "Bytes of live heap objects (runtime/metrics).", "/memory/classes/heap/objects:bytes", sampleFloat},
	{"libshalom_go_memory_total_bytes", "Total bytes of memory mapped by the Go runtime.", "/memory/classes/total:bytes", sampleFloat},
	{"libshalom_go_gc_pause_p99_seconds", "p99 stop-the-world GC pause (runtime/metrics histogram).", "/gc/pauses:seconds",
		func(s metrics.Sample) float64 { return histQuantile(s, 0.99) }},
	{"libshalom_go_goroutines", "Live goroutine count.", "/sched/goroutines:goroutines", sampleFloat},
	{"libshalom_go_gomaxprocs", "GOMAXPROCS at scrape time.", "/sched/gomaxprocs:threads", sampleFloat},
}

// declareRuntime declares the runtime gauges as scrape-time families.
func (r *Recorder) declareRuntime() {
	for _, g := range runtimeGauges {
		r.GaugeFunc(g.name, g.help, nil, func(emit Emit) {
			s := []metrics.Sample{{Name: g.sample}}
			metrics.Read(s)
			emit(g.value(s[0]))
		})
	}
}

// sampleFloat converts a scalar runtime/metrics sample to float64; unknown
// kinds (a metric removed in a future Go release) read as 0 rather than
// breaking the exposition.
func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// histQuantile estimates a quantile of a runtime/metrics histogram sample.
func histQuantile(s metrics.Sample, q float64) float64 {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s.Value.Float64Histogram()
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	idx := len(h.Counts) - 1
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			idx = i
			break
		}
	}
	// Bucket idx spans Buckets[idx] .. Buckets[idx+1]; report the upper
	// edge (pessimistic for a pause gauge), guarding ±Inf edges.
	hi := h.Buckets[idx+1]
	if hi > 1e9 || hi != hi { // +Inf or NaN sentinel
		hi = h.Buckets[idx]
	}
	return hi
}
