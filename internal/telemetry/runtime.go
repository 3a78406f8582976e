package telemetry

import "runtime/metrics"

// Go runtime gauges for the exposition: the two the attribution checks
// read (heap footprint and goroutine count). Each is sampled from
// runtime/metrics when a scrape or snapshot renders it — reads are cheap
// but not free, and nothing here may touch the GEMM hot path.
var runtimeGauges = []struct{ name, help, sample string }{
	{"libshalom_go_heap_objects_bytes", "Bytes of live heap objects (runtime/metrics).", "/memory/classes/heap/objects:bytes"},
	{"libshalom_go_goroutines", "Live goroutine count.", "/sched/goroutines:goroutines"},
}

// declareRuntime declares the runtime gauges as scrape-time families.
func (r *Recorder) declareRuntime() {
	for _, g := range runtimeGauges {
		r.GaugeFunc(g.name, g.help, nil, func(emit Emit) {
			s := []metrics.Sample{{Name: g.sample}}
			metrics.Read(s)
			emit(sampleFloat(s[0]))
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
