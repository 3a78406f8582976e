package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
)

func TestKeyIndexRoundTrip(t *testing.T) {
	seen := make(map[int]bool, numKeys)
	for prec := uint8(0); prec < numPrec; prec++ {
		for mode := uint8(0); mode < numMode; mode++ {
			for class := uint8(0); class < uint8(numShapeClasses); class++ {
				for kernel := uint8(0); kernel < numKernel; kernel++ {
					for outcome := uint8(0); outcome < numOutcome; outcome++ {
						idx := keyIndex(prec, mode, class, kernel, outcome)
						if idx < 0 || idx >= numKeys {
							t.Fatalf("keyIndex out of range: %d", idx)
						}
						if seen[idx] {
							t.Fatalf("keyIndex collision at %d", idx)
						}
						seen[idx] = true
						p, m, c, k, o := unpackKey(idx)
						if p != prec || m != mode || c != class || k != kernel || o != outcome {
							t.Fatalf("unpackKey(%d) = (%d,%d,%d,%d,%d), want (%d,%d,%d,%d,%d)",
								idx, p, m, c, k, o, prec, mode, class, kernel, outcome)
						}
					}
				}
			}
		}
	}
	if len(seen) != numKeys {
		t.Fatalf("covered %d keys, want %d", len(seen), numKeys)
	}
}

func TestBucketLog2(t *testing.T) {
	cases := []struct {
		v    uint64
		n    int
		want int
	}{
		{0, 8, 0},
		{1, 8, 1},
		{2, 8, 2},
		{3, 8, 2},
		{4, 8, 3},
		{1 << 40, 8, 7}, // clamped to n-1
	}
	for _, c := range cases {
		if got := bucketLog2(c.v, c.n); got != c.want {
			t.Errorf("bucketLog2(%d, %d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

func TestClassifyShape(t *testing.T) {
	cases := []struct {
		m, n, k int
		want    ShapeClass
	}{
		{0, 8, 8, ShapeEmpty},
		{8, 8, 8, ShapeTiny},
		{16, 16, 16, ShapeTiny},
		{64, 64, 64, ShapeSmall},
		{128, 128, 128, ShapeSmall},
		{160, 160, 160, ShapeMedium},
		{256, 256, 256, ShapeLarge},
		{1024, 64, 64, ShapeIrregular},
		{64, 1024, 64, ShapeIrregular},
		{129, 129, 8, ShapeMedium},
	}
	for _, c := range cases {
		if got := ClassifyShape(c.m, c.n, c.k); got != c.want {
			t.Errorf("ClassifyShape(%d,%d,%d) = %s, want %s", c.m, c.n, c.k, got, c.want)
		}
	}
	// Every class has a distinct, non-"unknown" name.
	names := map[string]bool{}
	for _, cl := range ShapeClasses() {
		s := cl.String()
		if s == "" || names[s] {
			t.Fatalf("shape class %d has bad or duplicate name %q", cl, s)
		}
		names[s] = true
	}
}

// TestNilRecorder verifies the disabled contract: every method on a nil
// Recorder is a safe no-op returning zero values.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Now() != 0 {
		t.Fatal("nil Now() != 0")
	}
	if r.CallTid() != 0 {
		t.Fatal("nil CallTid() != 0")
	}
	r.CallDone(PrecF32, 0, uint8(ShapeSmall), KernelFast, OutcomeOK, 0, 1)
	r.CallEvent(PrecF32, 0, uint8(ShapeSmall), KernelFast, OutcomeCancelled)
	r.ThreadChoice(4, 1)
	r.DegradationEvent(guard.ReasonPanic)
	r.FaultInjected(faults.PanicInKernel)
	r.TaskQueued(3)
	r.TaskStart(10)
	r.TaskDone(10)
	r.Span(PhaseCall, 0, 0, 0, 0, 1, 1, 1)
	if _, err := r.WriteTrace(io.Discard); err == nil {
		t.Fatal("nil WriteTrace should error")
	}
	s := r.Snapshot()
	if len(s.Calls) != 0 || s.Pool.TasksQueued != 0 {
		t.Fatal("nil Snapshot not zero")
	}
}

func TestCallDoneAggregation(t *testing.T) {
	r := New(Options{})
	start := r.Now()
	for i := 0; i < 5; i++ {
		r.CallDone(PrecF32, 2, uint8(ShapeSmall), KernelFast, OutcomeOK, start, 2*64*64*64)
	}
	r.CallDone(PrecF64, 0, uint8(ShapeTiny), KernelRef, OutcomeDegraded, start, 2*8*8*8)
	r.CallEvent(PrecF32, 1, uint8(ShapeLarge), KernelFast, OutcomeCancelled)

	s := r.Snapshot()
	if len(s.Calls) != 3 {
		t.Fatalf("got %d call keys, want 3", len(s.Calls))
	}
	byKey := map[string]CallStat{}
	for _, c := range s.Calls {
		byKey[c.Precision+"/"+c.Mode+"/"+c.ShapeClass+"/"+c.Kernel+"/"+c.Outcome] = c
	}
	ok := byKey["f32/TN/small/fast/ok"]
	if ok.Count != 5 {
		t.Fatalf("f32/TN/small/fast/ok count = %d, want 5", ok.Count)
	}
	if ok.DurNs == 0 || ok.Flops != 5*2*64*64*64 {
		t.Fatalf("bad sums: dur=%d flops=%d", ok.DurNs, ok.Flops)
	}
	var latSum, gfSum uint64
	for _, n := range ok.LatencyBuckets {
		latSum += n
	}
	for _, n := range ok.GFLOPSBuckets {
		gfSum += n
	}
	if latSum != 5 || gfSum != 5 {
		t.Fatalf("histogram totals %d/%d, want 5/5", latSum, gfSum)
	}
	if c := byKey["f64/NN/tiny/ref/degraded"]; c.Count != 1 {
		t.Fatalf("degraded key count = %d, want 1", c.Count)
	}
	cancelled := byKey["f32/NT/large/fast/cancelled"]
	if cancelled.Count != 1 || cancelled.DurNs != 0 {
		t.Fatalf("cancelled key = %+v, want count 1 with zero duration", cancelled)
	}
	if got := s.CallsTotal(""); got != 7 {
		t.Fatalf("CallsTotal = %d, want 7", got)
	}
	if got := s.CallsTotal("small"); got != 5 {
		t.Fatalf("CallsTotal(small) = %d, want 5", got)
	}
}

func TestThreadAndPoolStats(t *testing.T) {
	r := New(Options{})
	r.ThreadChoice(8, 1) // clamped
	r.ThreadChoice(4, 4)
	r.TaskQueued(3)
	r.TaskStart(100)
	r.TaskDone(200)
	s := r.Snapshot()
	if s.Threads.Calls != 2 || s.Threads.RequestedSum != 12 || s.Threads.ChosenSum != 5 || s.Threads.ClampedCalls != 1 {
		t.Fatalf("thread stats = %+v", s.Threads)
	}
	if s.Pool.TasksQueued != 3 || s.Pool.TasksStarted != 1 || s.Pool.TasksDone != 1 {
		t.Fatalf("pool stats = %+v", s.Pool)
	}
	if s.Pool.InFlight != 0 || s.Pool.QueueWaitNs != 100 || s.Pool.BusyNs != 200 {
		t.Fatalf("pool gauges = %+v", s.Pool)
	}
	// The exposition carries the same sums in seconds.
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"libshalom_pool_queue_wait_seconds_total 1e-07\n", "libshalom_pool_worker_busy_seconds_total 2e-07\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestEventCounters(t *testing.T) {
	r := New(Options{})
	r.DegradationEvent(guard.ReasonNumeric)
	r.DegradationEvent(guard.ReasonNumeric)
	r.FaultInjected(faults.SpuriousNaN)
	s := r.Snapshot()
	if len(s.Degradations) != 1 || s.Degradations[0].Name != "numeric-guard" || s.Degradations[0].Count != 2 {
		t.Fatalf("degradations = %+v", s.Degradations)
	}
	if len(s.Faults) != 1 || s.Faults[0].Count != 1 {
		t.Fatalf("faults = %+v", s.Faults)
	}
	// Unknown values must not panic or record.
	r.DegradationEvent("no-such-reason")
	r.FaultInjected(faults.Point(200))
}

func TestRingOverwrite(t *testing.T) {
	r := New(Options{TraceEvents: 4})
	for i := 0; i < 10; i++ {
		start := r.Now()
		r.Span(PhaseKernelBatch, 1, start, 0, PrecF32, 8, 8, 8)
	}
	s := r.Snapshot()
	if s.TraceSpans != 10 {
		t.Fatalf("TraceSpans = %d, want 10", s.TraceSpans)
	}
	if s.TraceDropped != 6 {
		t.Fatalf("TraceDropped = %d, want 6", s.TraceDropped)
	}
	var buf bytes.Buffer
	n, err := r.WriteTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("exported %d spans, want ring capacity 4", n)
	}
	if err := ValidateTrace(&buf); err != nil {
		t.Fatalf("overwritten ring exported invalid trace: %v", err)
	}
}

func TestTraceDisabled(t *testing.T) {
	r := New(Options{TraceEvents: -1})
	r.Span(PhaseCall, 0, 0, 0, 0, 1, 1, 1) // must not panic
	if _, err := r.WriteTrace(io.Discard); err == nil {
		t.Fatal("WriteTrace with tracing disabled should error")
	}
	if s := r.Snapshot(); s.TraceSpans != 0 {
		t.Fatalf("TraceSpans = %d, want 0", s.TraceSpans)
	}
}

// TestTraceExportNesting records a realistic call shape (call > plan,
// call > block > pack + kernel-batch) and checks the exported JSON is
// valid and properly nested on each lane.
func TestTraceExportNesting(t *testing.T) {
	r := New(Options{})
	tid := r.CallTid()
	callStart := r.Now()
	planStart := r.Now()
	r.Span(PhasePlan, tid, planStart, 2, PrecF32, 64, 64, 64)
	blockStart := r.Now()
	packStart := r.Now()
	r.Span(PhasePack, tid, packStart, 2, PrecF32, 64, 64, 64)
	kernStart := r.Now()
	r.Span(PhaseKernelBatch, tid, kernStart, 2, PrecF32, 64, 64, 64)
	r.Span(PhaseBlock, tid, blockStart, 2, PrecF32, 64, 64, 64)
	r.Span(PhaseCall, tid, callStart, 2, PrecF32, 64, 64, 64)

	var buf bytes.Buffer
	n, err := r.WriteTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("exported %d spans, want 5", n)
	}
	raw := buf.Bytes()
	if err := ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) != 10 {
		t.Fatalf("got %d events, want 10 (5 B/E pairs)", len(tf.TraceEvents))
	}
	first, last := tf.TraceEvents[0], tf.TraceEvents[len(tf.TraceEvents)-1]
	if first.Ph != "B" || !strings.HasPrefix(first.Name, "gemm TN f32 64x64x64") {
		t.Fatalf("first event = %+v, want gemm call B", first)
	}
	if last.Ph != "E" || !strings.HasPrefix(last.Name, "gemm ") {
		t.Fatalf("last event = %+v, want gemm call E", last)
	}
	if first.Args["mode"] != "TN" {
		t.Fatalf("call args = %v, want mode TN", first.Args)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"no traceEvents":  `{"displayTimeUnit":"ns"}`,
		"missing fields":  `{"traceEvents":[{"ph":"B"}]}`,
		"unbalanced B":    `{"traceEvents":[{"name":"x","ph":"B","ts":1,"tid":1}]}`,
		"E without B":     `{"traceEvents":[{"name":"x","ph":"E","ts":1,"tid":1}]}`,
		"name mismatch":   `{"traceEvents":[{"name":"x","ph":"B","ts":1,"tid":1},{"name":"y","ph":"E","ts":2,"tid":1}]}`,
		"time regression": `{"traceEvents":[{"name":"x","ph":"B","ts":2,"tid":1},{"name":"x","ph":"E","ts":1,"tid":1}]}`,
		"bad phase":       `{"traceEvents":[{"name":"x","ph":"X","ts":1,"tid":1}]}`,
	}
	for name, raw := range cases {
		if err := ValidateTrace(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: ValidateTrace accepted %q", name, raw)
		}
	}
	good := `{"traceEvents":[{"name":"x","ph":"B","ts":1,"tid":1},{"name":"x","ph":"E","ts":2,"tid":1}]}`
	if err := ValidateTrace(strings.NewReader(good)); err != nil {
		t.Errorf("ValidateTrace rejected a valid trace: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(Options{})
	start := r.Now()
	r.CallDone(PrecF32, 0, uint8(ShapeSmall), KernelFast, OutcomeOK, start, 2*64*64*64)
	r.ThreadChoice(4, 1)
	r.FaultInjected(faults.PanicInKernel)
	r.DegradationEvent(guard.ReasonPanic)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`libshalom_gemm_calls_total{precision="f32",mode="NN",shape_class="small",kernel="fast",outcome="ok"} 1`,
		`libshalom_gemm_latency_seconds_bucket{precision="f32",mode="NN",shape_class="small",kernel="fast",outcome="ok",le="+Inf"} 1`,
		`libshalom_gemm_gflops_count{precision="f32",mode="NN",shape_class="small",kernel="fast",outcome="ok"} 1`,
		"libshalom_threads_policy_calls_total 1",
		"libshalom_threads_clamped_calls_total 1",
		`libshalom_fault_events_total{point="panic-in-kernel"} 1`,
		`libshalom_degradation_events_total{reason="runtime-panic"} 1`,
		"libshalom_trace_spans_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, "libshalom_gemm_latency_seconds_count") {
		t.Error("missing histogram count")
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New(Options{})
	start := r.Now()
	r.Span(PhaseCall, r.CallTid(), start, 0, PrecF32, 8, 8, 8)
	r.CallDone(PrecF32, 0, uint8(ShapeTiny), KernelFast, OutcomeOK, start, 2*8*8*8)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "libshalom_gemm_calls_total") {
		t.Fatalf("/metrics: %d %q", code, body[:min(len(body), 120)])
	}
	code, body := get("/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.CallsTotal("") != 1 {
		t.Fatalf("/snapshot calls = %d, want 1", snap.CallsTotal(""))
	}
	code, body = get("/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace: %d", code)
	}
	if err := ValidateTrace(strings.NewReader(body)); err != nil {
		t.Fatalf("/trace invalid: %v", err)
	}
}

func TestCallTidLanes(t *testing.T) {
	r := New(Options{})
	first := r.CallTid()
	if first != 1000 {
		t.Fatalf("first caller lane = %d, want 1000", first)
	}
	if WorkerTid(-1, first) != first {
		t.Fatal("single-threaded path must inherit the caller lane")
	}
	if WorkerTid(0, first) != 1 || WorkerTid(3, first) != 4 {
		t.Fatal("worker lanes must be worker+1")
	}
}
