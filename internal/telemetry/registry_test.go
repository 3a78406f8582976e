package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRegistryExposition declares one family of each kind and pins its
// text rendering: only non-zero labelled cells, label values in declared
// order and escaped, sparse cumulative histogram buckets, integral values
// as integers.
func TestRegistryExposition(t *testing.T) {
	r := New(Options{TraceEvents: -1})
	kinds := []Label{{"kind", []string{"a", "b"}}, {"side", []string{"x", "y"}}}
	r.CounterVec("test_events_total", "Test events.", kinds...).At(3).Add(3)
	// Redeclaring returns the same cells: subsystems sharing a recorder
	// share its families.
	r.CounterVec("test_events_total", "Test events.", kinds...).At(3).Add(1)
	g := r.Gauge("test_level", "Test level.")
	g.Add(5)
	g.Add(-2)
	h := r.Histogram("test_wait_seconds", "Test wait.", Log2{Buckets: 4, Scale: 1e9})
	h.Observe(3)   // bucket 2: [2, 4) ns
	h.Observe(100) // clamped into the top bucket
	r.Histogram("test_batch", "Test batch.", Log2{Buckets: 2, Scale: 1, NoSum: true}).Observe(1)
	r.GaugeFunc("test_backend_up", "Test backends.", []string{"backend"}, func(emit Emit) {
		emit(1, "b0")
		emit(0.5, `b"1`)
	})

	var fams []Family
	for _, f := range r.Families() {
		if strings.HasPrefix(f.Name, "test_") {
			fams = append(fams, f)
		}
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fams); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_events_total Test events.
# TYPE test_events_total counter
test_events_total{kind="b",side="y"} 4
# HELP test_level Test level.
# TYPE test_level gauge
test_level 3
# HELP test_wait_seconds Test wait.
# TYPE test_wait_seconds histogram
test_wait_seconds_bucket{le="4e-09"} 1
test_wait_seconds_bucket{le="8e-09"} 2
test_wait_seconds_bucket{le="+Inf"} 2
test_wait_seconds_sum 1.03e-07
test_wait_seconds_count 2
# HELP test_batch Test batch.
# TYPE test_batch histogram
test_batch_bucket{le="2"} 1
test_batch_bucket{le="+Inf"} 1
test_batch_count 1
# HELP test_backend_up Test backends.
# TYPE test_backend_up gauge
test_backend_up{backend="b0"} 1
test_backend_up{backend="b\"1"} 0.5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	s := r.Snapshot()
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"test_events_total", nil, 4},
		{"test_events_total", []string{"b", "y"}, 4},
		{"test_events_total", []string{"a"}, 0},
		{"test_wait_seconds", nil, 2},
		{"test_backend_up", []string{"b0"}, 1},
		{"no_such_family", nil, 0},
	} {
		if got := s.Metric(c.name, c.labels...); got != c.want {
			t.Errorf("Metric(%s, %v) = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
}

func TestRegistryRedeclareShapeMismatchPanics(t *testing.T) {
	r := New(Options{TraceEvents: -1})
	r.Counter("test_total", "Test.")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_total", "Test.")
}

// A nil recorder declares nothing and hands out nil handles that record
// nothing.
func TestRegistryNilRecorder(t *testing.T) {
	var r *Recorder
	r.Counter("test_total", "Test.").Add(1)
	r.CounterVec("test_total", "Test.", Label{"k", []string{"a"}}).At(0).Add(1)
	r.Gauge("test_level", "Test.").Set(1)
	r.Histogram("test_seconds", "Test.", Log2{Buckets: 4, Scale: 1}).Observe(1)
	r.HistogramVec("test_seconds", "Test.", Log2{Buckets: 4, Scale: 1}).At(0).Observe(1)
	r.GaugeFunc("test_up", "Test.", nil, func(emit Emit) { emit(1) })
	r.AttribWindowDone()
	if fams := r.Families(); fams != nil {
		t.Fatalf("nil recorder rendered %d families", len(fams))
	}
}

// Recording, rendering and redeclaring from several goroutines at once
// loses no observation: counts and the CAS-accumulated sum are exact.
func TestRegistryConcurrent(t *testing.T) {
	r := New(Options{TraceEvents: -1})
	const workers, each = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test_total", "Test.")
			h := r.Histogram("test_seconds", "Test.", Log2{Buckets: 8, Scale: 1})
			for i := 0; i < each; i++ {
				c.Add(1)
				h.Observe(3)
				if i%100 == 0 {
					r.GaugeFunc("test_up", "Test.", nil, func(emit Emit) { emit(1) })
					_ = r.Families()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Metric("test_total"); got != workers*each {
		t.Errorf("counter = %v, want %d", got, workers*each)
	}
	for _, f := range s.Metrics {
		if f.Name == "test_seconds" && (f.Series[0].Value != workers*each || f.Series[0].Sum != 3*workers*each) {
			t.Errorf("histogram count %v sum %v, want %d and %d", f.Series[0].Value, f.Series[0].Sum, workers*each, 3*workers*each)
		}
	}
}
