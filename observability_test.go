package libshalom

// Integration tests of the telemetry layer through the public API: metric
// exactness (snapshot and Prometheus counts match the calls issued), trace
// structure (phase spans nest correctly under each GEMM call), the
// disabled-path allocation contract, and the thread-policy regression that
// a degenerate GEMM never spins up the worker pool.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"libshalom/internal/mat"
	"libshalom/internal/telemetry"
)

func runSGEMM(t *testing.T, ctx *Context, mode Mode, m, n, k int) {
	t.Helper()
	rng := mat.NewRNG(uint64(m*1000003 + n*1009 + k))
	ar, ac := m, k
	if mode.TransA() {
		ar, ac = k, m
	}
	br, bc := k, n
	if mode.TransB() {
		br, bc = n, k
	}
	A := mat.RandomF32(ar, ac, rng)
	B := mat.RandomF32(br, bc, rng)
	C := mat.NewF32(m, n)
	if err := ctx.SGEMM(mode, m, n, k, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCountsExact issues a known mix of calls and requires the
// per-shape-class call counts in both the Snapshot and the Prometheus
// rendering to match the calls issued exactly.
func TestSnapshotCountsExact(t *testing.T) {
	ctx := New(WithThreads(1), WithTelemetry())
	defer ctx.Close()

	issued := map[string]uint64{}
	run := func(mode Mode, m, n, k, times int) {
		for i := 0; i < times; i++ {
			runSGEMM(t, ctx, mode, m, n, k)
		}
		issued[ClassifyShape(m, n, k).String()] += uint64(times)
	}
	run(NN, 8, 8, 8, 3)       // tiny
	run(NT, 64, 64, 64, 4)    // small
	run(TN, 64, 64, 64, 2)    // small, second key
	run(TT, 160, 160, 160, 1) // medium

	snap := ctx.Snapshot()
	var total uint64
	for class, want := range issued {
		if got := snap.CallsTotal(class); got != want {
			t.Errorf("snapshot %s calls = %d, want %d", class, got, want)
		}
		total += want
	}
	if got := snap.CallsTotal(""); got != total {
		t.Errorf("snapshot total calls = %d, want %d", got, total)
	}
	for _, c := range snap.Calls {
		if c.Outcome != "ok" || c.Kernel != "fast" {
			t.Errorf("unexpected key in healthy run: %+v", c)
		}
	}

	// The Prometheus rendering must agree line-for-line with the snapshot.
	var buf bytes.Buffer
	if err := ctx.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	promByClass := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "libshalom_gemm_calls_total{") {
			continue
		}
		var count uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		start := strings.Index(line, `shape_class="`) + len(`shape_class="`)
		class := line[start : start+strings.IndexByte(line[start:], '"')]
		promByClass[class] += count
	}
	if len(promByClass) != len(issued) {
		t.Fatalf("prometheus classes %v, want %v", promByClass, issued)
	}
	for class, want := range issued {
		if promByClass[class] != want {
			t.Errorf("prometheus %s calls = %d, want %d", class, promByClass[class], want)
		}
	}
}

// TestTraceNesting runs one single-threaded TN call (the mode that also
// exercises the A-gather pack phase) and checks the exported Chrome trace:
// valid per ValidateTrace, and with plan, block, pack and kernel-batch
// spans correctly nested under the gemm call span.
func TestTraceNesting(t *testing.T) {
	ctx := New(WithThreads(1), WithTelemetry())
	defer ctx.Close()
	runSGEMM(t, ctx, TN, 64, 64, 64)

	var buf bytes.Buffer
	if err := ctx.ExportTrace(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if err := telemetry.ValidateTrace(bytes.NewReader(raw)); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	// Replay the single-threaded lane's stack and record each span's parent.
	base := func(name string) string {
		if i := strings.IndexByte(name, ' '); i >= 0 {
			return name[:i]
		}
		return name
	}
	parents := map[string]map[string]bool{} // phase -> set of parent phases
	var stack []string
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "B":
			parent := "root"
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			p := parents[base(ev.Name)]
			if p == nil {
				p = map[string]bool{}
				parents[base(ev.Name)] = p
			}
			p[parent] = true
			stack = append(stack, base(ev.Name))
		case "E":
			stack = stack[:len(stack)-1]
		}
	}
	want := map[string]string{
		"plan":         "gemm",
		"block":        "gemm",
		"pack":         "block",
		"kernel-batch": "block",
	}
	if len(parents["gemm"]) != 1 || !parents["gemm"]["root"] {
		t.Errorf("gemm span parents = %v, want top-level only", parents["gemm"])
	}
	for phase, wantParent := range want {
		got := parents[phase]
		if len(got) == 0 {
			t.Errorf("no %s span in trace", phase)
			continue
		}
		if len(got) != 1 || !got[wantParent] {
			t.Errorf("%s span parents = %v, want only %q", phase, got, wantParent)
		}
	}
}

// TestTelemetryOffHotPathAllocs asserts the disabled-path contract: a
// context built without WithTelemetry performs zero allocations per GEMM
// call (shalom-vet's telemetrypure analyzer additionally proves zero atomic
// writes; see internal/staticlint TestModuleClean).
func TestTelemetryOffHotPathAllocs(t *testing.T) {
	ctx := New(WithThreads(1))
	defer ctx.Close()
	rng := mat.NewRNG(7)
	A := mat.RandomF32(64, 64, rng)
	B := mat.RandomF32(64, 64, rng)
	C := mat.NewF32(64, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.SGEMM(NN, 64, 64, 64, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry-off SGEMM allocates %v objects per call, want 0", allocs)
	}
}

// TestTelemetryOnAttribSketchAllocs pins the attribution sketch's hot-path
// budget: with telemetry enabled (CallDone now also feeds the per-key
// attribution counters and the fine GFLOPS histogram) a GEMM call still
// performs zero allocations. The attribution *engine* polls those counters
// off-path on its own goroutine; nothing it needs may cost the caller an
// allocation.
func TestTelemetryOnAttribSketchAllocs(t *testing.T) {
	ctx := New(WithThreads(1), WithTelemetry())
	defer ctx.Close()
	rng := mat.NewRNG(7)
	A := mat.RandomF32(64, 64, rng)
	B := mat.RandomF32(64, 64, rng)
	C := mat.NewF32(64, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.SGEMM(NN, 64, 64, 64, 1, A.Data, A.Stride, B.Data, B.Stride, 0, C.Data, C.Stride); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry-on SGEMM allocates %v objects per call, want 0", allocs)
	}
	if got := ctx.Snapshot(); len(got.Attrib) == 0 {
		t.Fatal("attribution sketch recorded nothing")
	}
}

// TestDegenerateGEMMNeverStartsPool is the thread-policy regression: a
// 1x1x1 GEMM must not spin up the worker pool, whatever width was
// requested, and the clamp must be visible in the telemetry snapshot.
func TestDegenerateGEMMNeverStartsPool(t *testing.T) {
	for _, width := range []int{0, 8} {
		ctx := New(WithThreads(width), WithTelemetry())
		runSGEMM(t, ctx, NN, 1, 1, 1)
		if ctx.pool != nil {
			t.Fatalf("WithThreads(%d): 1x1x1 GEMM started the worker pool", width)
		}
		snap := ctx.Snapshot()
		if snap.Threads.Calls != 1 || snap.Threads.ChosenSum != 1 {
			t.Fatalf("WithThreads(%d): thread stats = %+v, want 1 call with chosen width 1", width, snap.Threads)
		}
		if width > 1 && snap.Threads.ClampedCalls != 1 {
			t.Fatalf("WithThreads(%d): clamp not recorded: %+v", width, snap.Threads)
		}
		if snap.Pool.TasksQueued != 0 {
			t.Fatalf("WithThreads(%d): pool saw %d tasks for a degenerate GEMM", width, snap.Pool.TasksQueued)
		}
		ctx.Close()
	}
}

// TestThreadChoiceRecorded checks requested-vs-chosen accounting through
// the public API under the automatic policy.
func TestThreadChoiceRecorded(t *testing.T) {
	ctx := New(WithTelemetry()) // automatic §7.4 policy
	defer ctx.Close()
	runSGEMM(t, ctx, NN, 64, 64, 64) // small: policy clamps to 1
	snap := ctx.Snapshot()
	if snap.Threads.Calls != 1 {
		t.Fatalf("thread policy calls = %d, want 1", snap.Threads.Calls)
	}
	if snap.Threads.ChosenSum != 1 {
		t.Fatalf("small GEMM chosen width = %d, want 1", snap.Threads.ChosenSum)
	}
	if snap.Threads.RequestedSum < 1 {
		t.Fatalf("requested width sum = %d, want >= 1", snap.Threads.RequestedSum)
	}
}

// TestTelemetryDisabledSurface checks the public API's behavior without
// WithTelemetry: zero-value snapshot, trace export error, no handler.
func TestTelemetryDisabledSurface(t *testing.T) {
	ctx := New(WithThreads(1))
	defer ctx.Close()
	if ctx.TelemetryEnabled() {
		t.Fatal("TelemetryEnabled without WithTelemetry")
	}
	runSGEMM(t, ctx, NN, 8, 8, 8)
	if snap := ctx.Snapshot(); len(snap.Calls) != 0 || snap.CallsTotal("") != 0 {
		t.Fatalf("disabled snapshot not zero: %+v", snap)
	}
	if err := ctx.ExportTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("ExportTrace should error with telemetry disabled")
	}
	if _, ok := ctx.TelemetryHandler(); ok {
		t.Fatal("TelemetryHandler should report false with telemetry disabled")
	}
	if ctx.PublishExpvar("should-not-publish") {
		t.Fatal("PublishExpvar should report false with telemetry disabled")
	}
}

// TestBatchTelemetry checks per-entry accounting through the batch API:
// every entry lands in the snapshot with the right shape class.
func TestBatchTelemetry(t *testing.T) {
	ctx := New(WithThreads(2), WithTelemetry())
	defer ctx.Close()
	rng := mat.NewRNG(3)
	var batch []SBatchEntry
	for i := 0; i < 6; i++ {
		A := mat.RandomF32(8, 8, rng)
		B := mat.RandomF32(8, 8, rng)
		C := mat.NewF32(8, 8)
		batch = append(batch, SBatchEntry{
			M: 8, N: 8, K: 8, Alpha: 1,
			A: A.Data, LDA: 8, B: B.Data, LDB: 8, Beta: 0, C: C.Data, LDC: 8,
		})
	}
	if err := ctx.SGEMMBatch(NN, batch); err != nil {
		t.Fatal(err)
	}
	snap := ctx.Snapshot()
	if got := snap.CallsTotal("tiny"); got != 6 {
		t.Fatalf("batch recorded %d tiny calls, want 6", got)
	}
	if snap.Pool.TasksQueued == 0 {
		t.Fatal("threaded batch recorded no pool tasks")
	}
	if snap.Pool.TasksDone != snap.Pool.TasksQueued || snap.Pool.InFlight != 0 {
		t.Fatalf("pool accounting unbalanced: %+v", snap.Pool)
	}
}
