package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
	"libshalom/internal/faults"
	"libshalom/internal/journal"
	"libshalom/internal/router"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// TestMetricsGolden pins the shape of the /metrics exposition in three
// scenarios where every conditional family carries at least one series: a
// library-only context, a fully populated server, and a router over two
// in-process backends. Each scenario renders a view of its exposition —
// the sorted HELP/TYPE lines of every family with a sample, the sorted
// series keys (le dropped from bucket keys), and the values of the
// counters the scenario fixes — and compares it against
// testdata/metrics.golden. Timing-dependent values are never compared.
func TestMetricsGolden(t *testing.T) {
	golden := readGolden(t, "testdata/metrics.golden")
	for _, sc := range []struct {
		name string
		run  func(t *testing.T) (exposition string, pinned []string)
	}{
		{"library", goldenLibrary},
		{"server", goldenServer},
		{"router", goldenRouter},
	} {
		t.Run(sc.name, func(t *testing.T) {
			body, pinned := sc.run(t)
			got := goldenView(t, body, pinned)
			want, ok := golden[sc.name]
			if !ok {
				t.Fatalf("no %q section in the golden file; view:\n%s", sc.name, strings.Join(got, "\n"))
			}
			diffLines(t, got, want)
		})
	}
}

// goldenLibrary drives a library-only context through a fixed call mix
// whose last call meets one injected kernel panic.
func goldenLibrary(t *testing.T) (string, []string) {
	faults.Reset()
	libshalom.ResetDegradations()
	t.Cleanup(func() {
		faults.Reset()
		libshalom.ResetDegradations()
	})
	ctx := libshalom.New(libshalom.WithTelemetry(), libshalom.WithThreads(1))
	defer ctx.Close()
	sgemm := func(mode libshalom.Mode, s int) {
		a, b, c := make([]float32, s*s), make([]float32, s*s), make([]float32, s*s)
		for i := range a {
			a[i], b[i] = float32(i%7)-3, float32(i%5)-2
		}
		if err := ctx.SGEMM(mode, s, s, s, 1, a, s, b, s, 0, c, s); err != nil {
			t.Fatalf("SGEMM %v %d: %v", mode, s, err)
		}
	}
	for i := 0; i < 3; i++ {
		sgemm(libshalom.NN, 8)
	}
	sgemm(libshalom.NT, 48)
	sgemm(libshalom.NT, 48)
	d := make([]float64, 16*16)
	if err := ctx.DGEMM(libshalom.NN, 16, 16, 16, 1, d, 16, d, 16, 0, make([]float64, 16*16), 16); err != nil {
		t.Fatalf("DGEMM: %v", err)
	}
	faults.Arm(faults.PanicInKernel, 1)
	sgemm(libshalom.NN, 64)

	h, ok := ctx.TelemetryHandler()
	if !ok {
		t.Fatal("telemetry handler missing")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String(), []string{
		"libshalom_gemm_calls_total",
		"libshalom_attrib_calls_total",
		"libshalom_fault_events_total",
		"libshalom_degradation_events_total",
		"libshalom_heal_events_total",
		"libshalom_threads_policy_calls_total",
		"libshalom_threads_chosen_total",
		"libshalom_pool_tasks_queued_total",
		"libshalom_attrib_windows_total",
	}
}

// goldenServer drives a server with a journal, an attribution engine that
// has closed one drifting window, and an autotuner that has run one search,
// through accepted and rejected requests.
func goldenServer(t *testing.T) (string, []string) {
	lib := libshalom.New(libshalom.WithTelemetry(), libshalom.WithThreads(1))
	rec := lib.TelemetryRecorder()
	// Calibration off and a one-window streak: every served class sits far
	// below the modeled ARM platform, so each drifts on the first window.
	eng := attrib.New(attrib.Config{
		Recorder: rec, Window: time.Hour, MinWindowCalls: 1, DriftWindows: 1, CalibrateOff: true,
	})
	tuner := autotune.New(autotune.Config{Recorder: rec, Platform: lib.Platform()})
	if err := tuner.TuneNow("f32", "small"); err != nil {
		t.Fatalf("TuneNow: %v", err)
	}
	jw, err := journal.Open(journal.Options{Dir: t.TempDir(), Telemetry: rec})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	srv := server.New(lib, server.Config{Attrib: eng, Autotune: tuner, Journal: jw})
	ts := httptest.NewServer(srv)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
		lib.Close()
		if err := jw.Close(); err != nil {
			t.Errorf("journal close: %v", err)
		}
	}()

	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	for i, s := range []int{12, 12, 12, 48, 48} {
		p := newProblem(t, direct, uint64(500+i), s, s, s, 0)
		if resp, raw := postEnv(t, ts.URL, p.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
	}
	if resp, _ := postEnv(t, ts.URL, []byte("not a request\n")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed request: HTTP %d, want 400", resp.StatusCode)
	}
	eng.Step()

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	return body, []string{
		"libshalom_gemm_calls_total",
		"libshalom_attrib_calls_total",
		"libshalom_attrib_drift_events_total",
		"libshalom_attrib_windows_total",
		"libshalom_server_requests_accepted_total",
		"libshalom_server_requests_rejected_total",
		"libshalom_server_requests_shed_total",
		"libshalom_server_requests_expired_total",
		"libshalom_autotune_events_total",
		"libshalom_autotune_overrides",
	}
}

// goldenRouter forwards a few requests through a router over two
// in-process backends.
func goldenRouter(t *testing.T) (string, []string) {
	var urls []string
	for i := 0; i < 2; i++ {
		lib := libshalom.New(libshalom.WithThreads(1))
		srv := server.New(lib, server.Config{})
		ts := httptest.NewServer(srv)
		urls = append(urls, ts.URL)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("backend drain: %v", err)
			}
			ts.Close()
			lib.Close()
		}()
	}
	rt, err := router.New(router.Config{Backends: urls, Telemetry: telemetry.New(telemetry.Options{})})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	for i, s := range []int{12, 12, 48, 48} {
		p := newProblem(t, direct, uint64(700+i), s, s, s, 0)
		if resp, raw := postEnv(t, rts.URL, p.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
	}
	status, body := get(t, rts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	// Backend URLs carry ephemeral ports; name them by position.
	for i, u := range urls {
		body = strings.ReplaceAll(body, u, "backend-"+strconv.Itoa(i))
	}
	return body, []string{
		"libshalom_router_requests_forwarded_total",
		"libshalom_router_attempts_total",
		"libshalom_router_retries_total",
		"libshalom_router_hedges_total",
		"libshalom_router_requests_shed_total",
		"libshalom_router_requests_error_total",
		"libshalom_router_requests_rejected_total",
		"libshalom_router_ejections_total",
	}
}

// goldenView renders an exposition as sorted golden lines: the HELP/TYPE
// lines of every family with at least one sample, one "series" line per
// series key (bucket keys without their le label, so one per histogram
// series), and one "value" line per series of a pinned family.
func goldenView(t *testing.T, body string, pinned []string) []string {
	t.Helper()
	values := validatePrometheus(t, body)
	types := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		}
	}
	familyOf := func(sample string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(sample, suf); ok && types[base] == "histogram" {
				return base
			}
		}
		return sample
	}
	isPinned := map[string]bool{}
	for _, name := range pinned {
		isPinned[name] = true
	}

	sampled := map[string]bool{}
	seen := map[string]bool{}
	var out []string
	for key, v := range values {
		name, labels, _ := strings.Cut(strings.TrimSuffix(key, "}"), "{")
		fam := familyOf(name)
		sampled[fam] = true
		if isPinned[fam] {
			out = append(out, "value "+key+" "+strconv.FormatFloat(v, 'g', -1, 64))
		}
		var kept []string
		for _, l := range strings.Split(labels, ",") {
			if l != "" && !(strings.HasSuffix(name, "_bucket") && strings.HasPrefix(l, "le=")) {
				kept = append(kept, l)
			}
		}
		series := "series " + name + "{" + strings.Join(kept, ",") + "}"
		if !seen[series] {
			seen[series] = true
			out = append(out, series)
		}
	}
	for _, name := range pinned {
		if !sampled[name] {
			t.Errorf("pinned family %s has no sample", name)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		for _, prefix := range []string{"# HELP ", "# TYPE "} {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if name, _, _ := strings.Cut(rest, " "); sampled[name] {
					out = append(out, line)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// readGolden splits the golden file into its "== name" sections.
func readGolden(t *testing.T, path string) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			cur = name
			sections[cur] = []string{}
			continue
		}
		if line != "" && cur != "" {
			sections[cur] = append(sections[cur], line)
		}
	}
	return sections
}

// diffLines reports the lines missing from got and the lines it has in
// excess, both sorted.
func diffLines(t *testing.T, got, want []string) {
	t.Helper()
	count := map[string]int{}
	for _, l := range want {
		count[l]++
	}
	for _, l := range got {
		count[l]--
	}
	var missing, extra []string
	for l, n := range count {
		for ; n > 0; n-- {
			missing = append(missing, l)
		}
		for ; n < 0; n++ {
			extra = append(extra, l)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("exposition differs from the golden view\nmissing:\n  %s\nunexpected:\n  %s",
			strings.Join(missing, "\n  "), strings.Join(extra, "\n  "))
	}
}
