package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
)

// sampleReport is a canned attribution report with one drifting hot key
// and one healthy key — the fixture the rendering tests assert against.
func sampleReport() attrib.Report {
	return attrib.Report{
		Platform:    "Kunpeng 920",
		WindowMs:    250,
		Windows:     12,
		Calibration: 0.021,
		DriftTotal:  1,
		Candidates: []attrib.Candidate{
			{
				Precision: "f32", Mode: "NN", ShapeClass: "small", Kernel: "fast",
				Calls: 4096, Windows: 12,
				MeasuredGFLOPS: 1.2, P50GFLOPS: 1.1, P99GFLOPS: 1.9,
				PredictedGFLOPS: 45.5, PeakGFLOPS: 83.2, RooflineGFLOPS: 83.2,
				RelEff: 0.31, Efficiency: 0.014,
				HotShare: 0.7, Shortfall: 0.69, Score: 0.483,
				Drifting: true, DriftEvents: 1,
			},
			{
				Precision: "f32", Mode: "NN", ShapeClass: "tiny", Kernel: "fast",
				Calls: 4096, Windows: 12,
				MeasuredGFLOPS: 0.4, P50GFLOPS: 0.4, P99GFLOPS: 0.5,
				PredictedGFLOPS: 19.0, PeakGFLOPS: 83.2, RooflineGFLOPS: 83.2,
				RelEff: 1.0, Efficiency: 0.005,
				HotShare: 0.3, Shortfall: 0, Score: 0,
			},
		},
		Events: []attrib.DriftEvent{{
			Precision: "f32", Mode: "NN", ShapeClass: "small", Kernel: "fast",
			Measured: 1.2, Predicted: 45.5, RelEff: 0.31, Windows: 2,
		}},
	}
}

// The heat view names every key, ranks the drifting hot key with the
// fullest bar, and prints the recent drift events.
func TestRenderAttribHeatView(t *testing.T) {
	var sb strings.Builder
	renderAttrib(&sb, sampleReport())
	out := sb.String()
	for _, want := range []string{
		"attribution — platform Kunpeng 920",
		"drift events 1",
		"small", "tiny", "DRIFT",
		strings.Repeat("#", heatBarWidth), // top score fills the bar
		"drift: f32/NN/small/fast",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("heat view missing %q:\n%s", want, out)
		}
	}
	// The drifting key outranks the healthy one in the listing.
	if strings.Index(out, "small") > strings.Index(out, "tiny") {
		t.Errorf("drifting small key not ranked first:\n%s", out)
	}
}

func TestRenderAttribEmptyFeed(t *testing.T) {
	var sb strings.Builder
	renderAttrib(&sb, attrib.Report{Platform: "Kunpeng 920"})
	if !strings.Contains(sb.String(), "no scored windows") {
		t.Errorf("empty feed not signposted:\n%s", sb.String())
	}
}

func TestHeatBar(t *testing.T) {
	if got := heatBar(0, 1); got != "" {
		t.Errorf("zero score drew %q", got)
	}
	if got := heatBar(1, 1); len(got) != heatBarWidth {
		t.Errorf("full score drew %d chars, want %d", len(got), heatBarWidth)
	}
	if got := heatBar(0.001, 1); len(got) != 1 {
		t.Errorf("tiny positive score drew %q, want a single tick", got)
	}
}

// run in the workload mode drives real GEMMs, renders the metrics table
// and the live attribution heat view, and exits 0.
func TestRunOnceRendersTableAndHeatView(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-mix", "small", "-duration", "150ms", "-once"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"shalom-top — mix small", "GFLOPS", "attribution — platform"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// -no-attrib suppresses the engine but keeps the heat-view footer working
// on the nil engine's zero report.
func TestRunNoAttrib(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-mix", "small", "-duration", "50ms", "-once", "-no-attrib"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no scored windows") {
		t.Errorf("nil-engine heat view not signposted:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-mix", "bogus", "-duration", "10ms"}, &out, &errb); code != 2 {
		t.Fatalf("unknown mix: run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -mix") {
		t.Errorf("stderr does not explain the mix error:\n%s", errb.String())
	}
	if code := run([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: run = %d, want 2", code)
	}
}

// The remote mode fetches /attrib from a server base URL and renders the
// same heat view once.
func TestRunRemoteAttrib(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/attrib" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sampleReport())
	}))
	defer ts.Close()

	var out, errb strings.Builder
	if code := run([]string{"-attrib", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("remote attrib: run = %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"DRIFT", "drift: f32/NN/small/fast", "Kunpeng 920"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote heat view missing %q:\n%s", want, out.String())
		}
	}

	// A dead endpoint is a clean failure, not a panic.
	ts.Close()
	if code := run([]string{"-attrib", ts.URL}, &out, &errb); code != 1 {
		t.Fatalf("dead endpoint: run = %d, want 1", code)
	}
}

// sampleTuneReport is a canned autotuner report with one promoted class and
// one rejected class — the fixture the tune-view tests assert against.
func sampleTuneReport() autotune.Report {
	return autotune.Report{
		Platform: "Kunpeng 920",
		Margin:   0.10,
		Searched: 3, Proved: 1, Rejected: 1, Canaried: 1, Promoted: 1,
		Classes: []autotune.ClassReport{
			{
				Precision: "f32", ShapeClass: "small", State: "promoted",
				Kernel: "tuned-7x12-kc16-pipelined", MR: 7, NR: 12, KC: 16,
				IncumbentKernel: "detuned-1x4", IncumbentGFLOPS: 6.9,
				CandidateGFLOPS: 41.6,
			},
			{
				Precision: "f64", ShapeClass: "medium", State: "rejected",
				IncumbentKernel: "analytic-7x6", IncumbentGFLOPS: 20.8,
				Detail: "no candidate beat the incumbent by the margin",
			},
		},
	}
}

// The tune view prints the lifetime counters and one row per class with its
// state, tuned-kernel tag, and incumbent/candidate throughput.
func TestRenderTune(t *testing.T) {
	var sb strings.Builder
	renderTune(&sb, sampleTuneReport())
	out := sb.String()
	for _, want := range []string{
		"autotune — platform Kunpeng 920, margin 10%",
		"promoted 1", "reverted 0",
		"promoted", "tuned-7x12-kc16-pipelined", "41.6", "6.9",
		"rejected", "no candidate beat the incumbent by the margin",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tune view missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTuneEmpty(t *testing.T) {
	var sb strings.Builder
	renderTune(&sb, autotune.Report{Platform: "Kunpeng 920"})
	if !strings.Contains(sb.String(), "no classes tuned yet") {
		t.Errorf("empty tune view not signposted:\n%s", sb.String())
	}
}

// The remote mode fetches /tune from a server base URL and renders the
// autotuner view once.
func TestRunRemoteTune(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/tune" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sampleTuneReport())
	}))
	defer ts.Close()

	var out, errb strings.Builder
	if code := run([]string{"-tune", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("remote tune: run = %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"tuned-7x12-kc16-pipelined", "promoted", "Kunpeng 920"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote tune view missing %q:\n%s", want, out.String())
		}
	}

	// A dead endpoint is a clean failure, not a panic.
	ts.Close()
	if code := run([]string{"-tune", ts.URL}, &out, &errb); code != 1 {
		t.Fatalf("dead tune endpoint: run = %d, want 1", code)
	}
}
