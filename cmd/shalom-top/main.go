// Command shalom-top runs a GEMM workload mix on a telemetry-enabled
// context and live-renders its metrics — a top(1)-style view of what the
// runtime is doing per (precision, mode, shape class, kernel, outcome),
// plus pool scheduling and thread-policy gauges and the attribution heat
// view (measured vs predicted vs roofline per key, with the tuning
// candidates ranked hottest-and-worst first). With -trace it also exports
// the phase spans of the run as Chrome trace_event JSON for
// chrome://tracing or ui.perfetto.dev; the end-to-end trace test
// (internal/e2e) validates that file with telemetry.ValidateTrace.
//
// Usage:
//
//	shalom-top [-mix small|irregular|mixed] [-duration 5s] [-interval 500ms]
//	           [-threads N] [-once] [-no-attrib]
//	           [-trace FILE]
//	shalom-top -attrib http://HOST:PORT
//	shalom-top -tune http://HOST:PORT
//
// The second and third forms do not drive a workload: -attrib fetches
// /attrib from a running shalom-serve, renders its attribution heat view
// once, and exits — the mode the end-to-end attribution test asserts
// against. -tune fetches /tune the same way and renders the autotuner view:
// one row per shape class with its tuning state and promoted-kernel tag —
// the mode the end-to-end tune test asserts against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
	"libshalom/internal/mat"
	"libshalom/internal/workloads"
)

// job is one pre-allocated GEMM problem the driver loop replays.
type job struct {
	mode          libshalom.Mode
	shape         workloads.Shape
	f64           bool
	a32, b32, c32 []float32
	a64, b64, c64 []float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, drives the workload (or
// the remote attribution fetch), and renders to stdout. It returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shalom-top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mix := fs.String("mix", "mixed", "workload mix: small, irregular, or mixed")
	threads := fs.Int("threads", 0, "thread width (0 = automatic §7.4 policy)")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive the workload")
	interval := fs.Duration("interval", 500*time.Millisecond, "refresh interval of the live table")
	once := fs.Bool("once", false, "run for -duration, print the table once, exit")
	noAttrib := fs.Bool("no-attrib", false, "skip the local attribution heat view")
	attribURL := fs.String("attrib", "", "fetch /attrib from this shalom-serve base URL, render its heat view once, exit")
	tuneURL := fs.String("tune", "", "fetch /tune from this shalom-serve base URL, render the autotuner view once, exit")
	tracePath := fs.String("trace", "", "write Chrome trace_event JSON to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *attribURL != "" {
		return runRemoteAttrib(*attribURL, stdout, stderr)
	}
	if *tuneURL != "" {
		return runRemoteTune(*tuneURL, stdout, stderr)
	}
	jobs, err := buildJobs(*mix)
	if err != nil {
		fmt.Fprintln(stderr, "shalom-top:", err)
		return 2
	}

	ctx := libshalom.New(libshalom.WithTelemetry(), libshalom.WithThreads(*threads))
	defer ctx.Close()
	// The local heat view runs the attribution engine over this context's
	// own recorder; windows close on each render so the view is live.
	var eng *attrib.Engine
	if !*noAttrib {
		eng = attrib.New(attrib.Config{
			Recorder:       ctx.TelemetryRecorder(),
			Window:         *interval,
			MinWindowCalls: 1,
		})
	}

	deadline := time.Now().Add(*duration)
	nextRender := time.Now().Add(*interval)
	for i := 0; time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		if err := runJob(ctx, j); err != nil {
			fmt.Fprintln(stderr, "shalom-top: gemm failed:", err)
			return 1
		}
		if !*once && time.Now().After(nextRender) {
			fmt.Fprint(stdout, "\x1b[H\x1b[2J")
			eng.Step()
			render(stdout, ctx.Snapshot(), *mix)
			renderAttrib(stdout, eng.Report())
			nextRender = time.Now().Add(*interval)
		}
	}
	if !*once {
		fmt.Fprint(stdout, "\x1b[H\x1b[2J")
	}
	eng.Step()
	render(stdout, ctx.Snapshot(), *mix)
	renderAttrib(stdout, eng.Report())

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "shalom-top:", err)
			return 1
		}
		if err := ctx.ExportTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "shalom-top: trace export:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "shalom-top:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\ntrace written to %s\n", *tracePath)
	}
	return 0
}

// runRemoteAttrib fetches a running server's /attrib report and renders
// the heat view once — the scriptable remote mode.
func runRemoteAttrib(base string, stdout, stderr io.Writer) int {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasSuffix(url, "/attrib") {
		url += "/attrib"
	}
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(stderr, "shalom-top:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		fmt.Fprintf(stderr, "shalom-top: GET %s: HTTP %d: %s\n", url, resp.StatusCode, strings.TrimSpace(string(body)))
		return 1
	}
	var rep attrib.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Fprintf(stderr, "shalom-top: decoding %s: %v\n", url, err)
		return 1
	}
	renderAttrib(stdout, rep)
	return 0
}

// runRemoteTune fetches a running server's /tune report and renders the
// autotuner view once — the scriptable remote mode the end-to-end tune
// test asserts against.
func runRemoteTune(base string, stdout, stderr io.Writer) int {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasSuffix(url, "/tune") {
		url += "/tune"
	}
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(stderr, "shalom-top:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		fmt.Fprintf(stderr, "shalom-top: GET %s: HTTP %d: %s\n", url, resp.StatusCode, strings.TrimSpace(string(body)))
		return 1
	}
	var rep autotune.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		fmt.Fprintf(stderr, "shalom-top: decoding %s: %v\n", url, err)
		return 1
	}
	renderTune(stdout, rep)
	return 0
}

// buildJobs pre-allocates the operand matrices of the chosen mix so the
// driver loop measures GEMM, not allocation. Modes rotate across jobs so
// every transposition path shows up in the table.
func buildJobs(mix string) ([]job, error) {
	var shapes []workloads.Shape
	var f64From int // index of the first FP64 job; len(shapes) = none
	switch mix {
	case "small":
		shapes = workloads.SmallSquareSweep()
		f64From = len(shapes)
	case "irregular":
		// Panel-shaped problems in the §6 regime, scaled so one pass stays
		// interactive; the full Fig 9 sweeps belong to the bench harness.
		shapes = []workloads.Shape{
			{Name: "tall", M: 1024, N: 64, K: 64},
			{Name: "wide", M: 64, N: 1024, K: 64},
			{Name: "tall-deep", M: 2048, N: 32, K: 128},
			{Name: "wide-deep", M: 32, N: 2048, K: 128},
		}
		f64From = len(shapes)
	case "mixed":
		shapes = append(shapes, workloads.SmallSquareSweep()[:8]...)
		shapes = append(shapes,
			workloads.Shape{Name: "tall", M: 1024, N: 64, K: 64},
			workloads.Shape{Name: "wide", M: 64, N: 1024, K: 64},
			workloads.Shape{Name: "medium", M: 160, N: 160, K: 160},
		)
		f64From = len(shapes)
		shapes = append(shapes, workloads.CP2K()...) // FP64, CP2K §7.3 sizes
	default:
		return nil, fmt.Errorf("unknown -mix %q (want small, irregular, or mixed)", mix)
	}
	modes := []libshalom.Mode{libshalom.NN, libshalom.NT, libshalom.TN, libshalom.TT}
	rng := mat.NewRNG(1)
	jobs := make([]job, 0, len(shapes))
	for i, s := range shapes {
		j := job{mode: modes[i%len(modes)], shape: s, f64: i >= f64From}
		if j.f64 {
			j.a64 = mat.RandomF64(s.M, s.K, rng).Data
			j.b64 = mat.RandomF64(s.K, s.N, rng).Data
			j.c64 = make([]float64, s.M*s.N)
		} else {
			j.a32 = mat.RandomF32(s.M, s.K, rng).Data
			j.b32 = mat.RandomF32(s.K, s.N, rng).Data
			j.c32 = make([]float32, s.M*s.N)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// runJob issues one GEMM. Operands were allocated for the NN layout; the
// transposed modes reinterpret the same buffers (A is M×K or K×M with the
// matching leading dimension), which is exactly the reinterpretation the
// BLAS interface permits.
func runJob(ctx *libshalom.Context, j job) error {
	s := j.shape
	lda, ldb := s.K, s.N
	if j.mode.TransA() {
		lda = s.M
	}
	if j.mode.TransB() {
		ldb = s.K
	}
	if j.f64 {
		return ctx.DGEMM(j.mode, s.M, s.N, s.K, 1, j.a64, lda, j.b64, ldb, 0, j.c64, s.N)
	}
	return ctx.SGEMM(j.mode, s.M, s.N, s.K, 1, j.a32, lda, j.b32, ldb, 0, j.c32, s.N)
}

func render(w io.Writer, s libshalom.TelemetrySnapshot, mix string) {
	var totalCalls uint64
	for _, cs := range s.Calls {
		totalCalls += cs.Count
	}
	fmt.Fprintf(w, "shalom-top — mix %s — %d calls\n\n", mix, totalCalls)
	fmt.Fprintf(w, "%-5s %-4s %-9s %-6s %-9s %10s %12s %10s\n",
		"prec", "mode", "class", "kern", "outcome", "calls", "mean-lat", "GFLOPS")
	rows := append([]libshalom.TelemetryCallStat(nil), s.Calls...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	for _, cs := range rows {
		meanLat := time.Duration(0)
		if cs.Count > 0 {
			meanLat = time.Duration(cs.DurNs / cs.Count)
		}
		fmt.Fprintf(w, "%-5s %-4s %-9s %-6s %-9s %10d %12s %10.2f\n",
			cs.Precision, cs.Mode, cs.ShapeClass, cs.Kernel, cs.Outcome,
			cs.Count, meanLat, cs.MeanGFLOPS())
	}
	fmt.Fprintf(w, "\npool: queued %d, started %d, done %d, in-flight %d, queue-wait %s, busy %s\n",
		s.Pool.TasksQueued, s.Pool.TasksStarted, s.Pool.TasksDone, s.Pool.InFlight,
		time.Duration(s.Pool.QueueWaitNs), time.Duration(s.Pool.BusyNs))
	t := s.Threads
	meanReq, meanChose := 0.0, 0.0
	if t.Calls > 0 {
		meanReq = float64(t.RequestedSum) / float64(t.Calls)
		meanChose = float64(t.ChosenSum) / float64(t.Calls)
	}
	fmt.Fprintf(w, "threads: %d policy calls, mean requested %.1f, mean chosen %.1f, clamped %d\n",
		t.Calls, meanReq, meanChose, t.ClampedCalls)
	if len(s.Degradations) > 0 || len(s.Faults) > 0 {
		fmt.Fprintf(w, "events:")
		for _, e := range s.Degradations {
			fmt.Fprintf(w, " degraded/%s=%d", e.Name, e.Count)
		}
		for _, e := range s.Faults {
			fmt.Fprintf(w, " fault/%s=%d", e.Name, e.Count)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "trace: %d spans buffered, %d dropped\n", s.TraceSpans, s.TraceDropped)
}

// heatBarWidth is the width of the heat column.
const heatBarWidth = 10

// heatBar renders score relative to the feed's maximum as a bar: the
// hotter-and-worse a key, the fuller the bar.
func heatBar(score, max float64) string {
	if max <= 0 || score <= 0 {
		return ""
	}
	n := int(score/max*heatBarWidth + 0.5)
	if n < 1 {
		n = 1
	}
	if n > heatBarWidth {
		n = heatBarWidth
	}
	return strings.Repeat("#", n)
}

// renderAttrib prints the attribution heat view: one row per scored key,
// ranked by the tuning-candidate score, with measured vs predicted vs
// roofline columns and a DRIFT marker on latched keys.
func renderAttrib(w io.Writer, rep attrib.Report) {
	fmt.Fprintf(w, "\nattribution — platform %s, window %.0fms, %d windows, calibration %.3g, drift events %d\n",
		rep.Platform, rep.WindowMs, rep.Windows, rep.Calibration, rep.DriftTotal)
	if len(rep.Candidates) == 0 {
		fmt.Fprintln(w, "  (no scored windows yet)")
		return
	}
	fmt.Fprintf(w, "%-4s %-4s %-9s %-4s %8s %8s %8s %8s %8s %7s %6s %7s  %-10s %s\n",
		"prec", "mode", "class", "kern", "calls", "meas", "p99", "pred", "roof",
		"rel-eff", "hot%", "score", "heat", "")
	maxScore := rep.Candidates[0].Score
	for _, c := range rep.Candidates {
		if c.Score > maxScore {
			maxScore = c.Score
		}
	}
	for _, c := range rep.Candidates {
		marker := ""
		if c.Drifting {
			marker = "DRIFT"
		}
		fmt.Fprintf(w, "%-4s %-4s %-9s %-4s %8d %8.2f %8.2f %8.2f %8.2f %7.2f %6.1f %7.4f  %-10s %s\n",
			c.Precision, c.Mode, c.ShapeClass, c.Kernel, c.Calls,
			c.MeasuredGFLOPS, c.P99GFLOPS, c.PredictedGFLOPS, c.RooflineGFLOPS,
			c.RelEff, c.HotShare*100, c.Score, heatBar(c.Score, maxScore), marker)
	}
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "drift: %s/%s/%s/%s — %.2f GFLOPS vs %.2f predicted (rel-eff %.2f after %d windows)\n",
			ev.Precision, ev.Mode, ev.ShapeClass, ev.Kernel,
			ev.Measured, ev.Predicted, ev.RelEff, ev.Windows)
	}
}

// renderTune prints the autotuner view: lifetime counters, then one row per
// tracked shape class with its lifecycle state and — once a candidate is
// canarying or promoted — the tuned-kernel tag and modeled uplift.
func renderTune(w io.Writer, rep autotune.Report) {
	fmt.Fprintf(w, "autotune — platform %s, margin %.0f%% — searched %d, proved %d, rejected %d, canaried %d, promoted %d, reverted %d\n",
		rep.Platform, rep.Margin*100, rep.Searched, rep.Proved, rep.Rejected,
		rep.Canaried, rep.Promoted, rep.Reverted)
	if len(rep.Classes) == 0 {
		fmt.Fprintln(w, "  (no classes tuned yet)")
		return
	}
	fmt.Fprintf(w, "%-4s %-9s %-10s %-28s %10s %10s  %s\n",
		"prec", "class", "state", "kernel", "incumbent", "candidate", "")
	for _, c := range rep.Classes {
		kern := c.Kernel
		if kern == "" {
			kern = "-"
		}
		inc, cand := "-", "-"
		if c.IncumbentGFLOPS > 0 {
			inc = fmt.Sprintf("%.1f", c.IncumbentGFLOPS)
		}
		if c.CandidateGFLOPS > 0 {
			cand = fmt.Sprintf("%.1f", c.CandidateGFLOPS)
		}
		fmt.Fprintf(w, "%-4s %-9s %-10s %-28s %10s %10s  %s\n",
			c.Precision, c.ShapeClass, c.State, kern, inc, cand, c.Detail)
	}
}
