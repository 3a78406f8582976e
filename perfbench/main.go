// Command perfbench is the repository benchmark: measured wall-clock
// performance of the library, the serving tier and the router on four
// workloads, end to end and layer by layer.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload small|irregular|serve|routed \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 sets the workload up several times (setup_s is the median),
// drives it for S seconds with tracing off and prints the end-to-end
// metrics. --trace 1 is the separate traced run: a short untraced drive,
// a traced drive whose spans go to a Chrome trace_event file, a probe of
// the serving layers the workload does not pass through, and the
// layer-isolation pass; it prints the per-layer metrics. Every result is
// checked against a reference within a forward-error bound. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The metric sets, with their units: every run prints every metric of
// its set. BENCHMARK.json names the same metrics.
var (
	endToEndUnits = map[string]string{
		"gflops":         "GFLOP/s",
		"gflops_geomean": "GFLOP/s",
		"rps":            "req/s",
		"latency_p50_ms": "ms",
		"allocs_per_op":  "count",
		"bytes_per_op":   "B",
		"setup_s":        "s",
	}
	perLayerUnits = map[string]string{
		"kernels.micro_gflops":      "GFLOP/s",
		"kernels.share":             "ratio",
		"pack.share":                "ratio",
		"core.plan_share":           "ratio",
		"parallel.barrier_share":    "ratio",
		"pack.gbps":                 "GB/s",
		"core.tiny_call_ns":         "ns",
		"core.overhead_ns":          "ns",
		"core.allocs_per_call.NN":   "count",
		"core.allocs_per_call.NT":   "count",
		"core.bytes_per_call.NN":    "B",
		"core.bytes_per_call.NT":    "B",
		"guard.dispatch_ns":         "ns",
		"guard.override_lookup_ns":  "ns",
		"parallel.run_us":           "us",
		"batch.entry_us.1":          "us",
		"batch.entry_us.2":          "us",
		"batch.entry_us.64":         "us",
		"server.decode_us":          "us",
		"server.encode_us":          "us",
		"server.decode_response_us": "us",
		"server.handler_us":         "us",
		"server.queue_wait_p50_us":  "us",
		"server.queue_wait_p99_us":  "us",
		"server.batch_size_mean":    "count",
		"server.self_us":            "us",
		"http.transport_us":         "us",
		"router.hop_us":             "us",
		"router.attempts_per_req":   "count",
		"runtime.gc_cycles_per_kop": "count",
		"runtime.gc_pause_p99_us":   "us",
		"trace.overhead_pct":        "%",
	}
)

// An end-to-end run sets up at least minSetups times, and up to maxSetups
// while set-up has taken under two seconds in all; setup_s is the median.
const (
	minSetups = 3
	maxSetups = 5
)

// result is one run's outcome; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's arguments.
type config struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small, irregular, serve or routed")
	seed := fs.Uint64("seed", 1, "input seed: fixes shapes' order, operand values and per-client order")
	seconds := fs.Float64("seconds", 10, "measurement time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for reports and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload small|irregular|serve|routed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench runs one invocation, prints its human-readable report, and
// writes the report file.
func bench(cfg config, stdout io.Writer) (result, error) {
	h := probeHost()
	comparable, why, err := checkHost(cfg.out, h)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %v, trace %t\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "host: nproc %d, GOMAXPROCS %d, %s, %q, commit %s, source %.12s, AfterFunc(200µs) fires after %.0fµs\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPU, h.Commit, h.Source, h.TimerFireUS)
	if comparable {
		fmt.Fprintln(stdout, "host: comparable with the first run recorded in", cfg.out)
	} else {
		fmt.Fprintln(stdout, "host: NOT COMPARABLE with the first run recorded in", cfg.out+":", why)
	}

	var (
		values map[string]float64
		units  map[string]string
		tally  clientResult
		notes  []string
	)
	if cfg.trace {
		values, tally, notes, err = tracedRun(cfg)
		units = perLayerUnits
	} else {
		values, tally, notes, err = endToEndRun(cfg)
		units = endToEndUnits
	}
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: tally.attempted, Failed: tally.failed, Metrics: map[string]metric{}}
	res.Correct = tally.failed == 0
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, ok := values[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, v, units[n])
	}
	failPct := 0.0
	if tally.attempted > 0 {
		failPct = 100 * float64(tally.failed) / float64(tally.attempted)
	}
	fmt.Fprintf(stdout, "  %-28s %14.6g %% (%d of %d operations)\n", "fail_pct", failPct, tally.failed, tally.attempted)
	if tally.firstErr != nil {
		fmt.Fprintln(stdout, "  first failure:", tally.firstErr)
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "  note:", n)
	}

	report := struct {
		Workload   string   `json:"workload"`
		Seed       uint64   `json:"seed"`
		Seconds    float64  `json:"seconds"`
		Trace      bool     `json:"trace"`
		Host       host     `json:"host"`
		Comparable bool     `json:"comparable"`
		WhyNot     string   `json:"not_comparable_because,omitempty"`
		FailPct    float64  `json:"fail_pct"`
		Notes      []string `json:"notes,omitempty"`
		Result     result   `json:"result"`
	}{cfg.w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, h, comparable, why, failPct, notes, res}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("report-%s-trace%d-seed%d.json", cfg.w.name, btoi(cfg.trace), cfg.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, "report:", path)
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEndRun sets the workload up several times, keeps the last set-up,
// and drives it untraced for the run's time.
func endToEndRun(cfg config) (map[string]float64, clientResult, []string, error) {
	var (
		e      *env
		setups []float64
		tally  clientResult
	)
	for spent := 0.0; len(setups) < minSetups || len(setups) < maxSetups && spent < 2; {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg.w, cfg.seed, nil, 0); err != nil {
			return nil, tally, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		merge(&tally, e.warm)
	}
	res, before, after := e.drive(cfg.seed, cfg.seconds)
	e.close()
	merge(&tally, res...)
	values := endToEnd(e.ops, res, before, after, median(setups), cfg.w.callQuantile)
	attempted, failed, _ := totals(res...)
	// latency_p99_ms is printed but not one of the gated metrics: on serve
	// it sits at the edge of the GC-slowed tail, and over ten 20 s runs on
	// a 2-vCPU host its quartile spread reached 35% of its median, more
	// than any bound BENCHMARK.json may set.
	notes := []string{
		fmt.Sprintf("latency_p99_ms %.6g ms (printed, not gated)", values["latency_p99_ms"]),
		fmt.Sprintf("latency quantiles over %d correct samples from %d closed-loop client(s)", attempted-failed, cfg.w.clients()),
		fmt.Sprintf("setup_s is the median of %d set-ups", len(setups)),
	}
	return values, tally, notes, nil
}

// merge adds the attempts and failures of res into t.
func merge(t *clientResult, res ...clientResult) {
	a, f, err := totals(res...)
	t.attempted += a
	t.failed += f
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// tracedRun is the separate traced run. Of the run's time, a quarter
// drives the workload untraced (the reference for the tracing overhead
// and the GC cycle rate), a quarter drives it traced, 15% probes the
// serving layers the workload does not pass through, and the rest is the
// layer-isolation pass. The GC pause quantile covers every cycle of the
// invocation, set-ups included, since a workload that allocates little
// may run its drive without one.
func tracedRun(cfg config) (map[string]float64, clientResult, []string, error) {
	var tally clientResult
	values := map[string]float64{}
	part := func(f float64) time.Duration { return time.Duration(f * float64(cfg.seconds)) }
	start := readMem()

	e, err := setup(cfg.w, cfg.seed, nil, 0)
	if err != nil {
		return nil, tally, nil, err
	}
	res, before, after := e.drive(cfg.seed, part(0.25))
	e.close()
	merge(&tally, e.warm)
	merge(&tally, res...)
	untracedRate, _ := rates(e.ops, res, cfg.w.callQuantile)
	attempted, _, _ := totals(res...)
	values["runtime.gc_cycles_per_kop"] = 1e3 * float64(after.gcs-before.gcs) / math.Max(1, float64(attempted))

	tr := newTracer()
	const ring = 1 << 18
	et, err := setup(cfg.w, cfg.seed, tr, ring)
	if err != nil {
		return nil, tally, nil, err
	}
	resT, _, _ := et.drive(cfg.seed, part(0.25))
	programs, err := et.programTraces()
	et.close()
	if err != nil {
		return nil, tally, nil, err
	}
	merge(&tally, et.warm)
	merge(&tally, resT...)
	tracedRate, _ := rates(et.ops, resT, cfg.w.callQuantile)
	values["trace.overhead_pct"] = 100 * (untracedRate - tracedRate) / untracedRate
	shares := phaseShares(programs)
	values["kernels.share"] = shares["kernel-batch"]
	values["pack.share"] = shares["pack"]
	values["core.plan_share"] = shares["plan"]
	values["parallel.barrier_share"] = shares["barrier"]
	notes := []string{fmt.Sprintf("phase shares from %d program spans of %d context(s)", countSpans(programs), len(programs))}

	// The serving layers: from the traced drive where the workload passes
	// through them, otherwise from a probe that sends the workload's ops
	// through a router in front of two servers.
	if !cfg.w.library {
		for n, v := range servedLayers(tr.snapshot(), resT) {
			values[n] = v
		}
	}
	if !cfg.w.routed {
		mark := len(tr.snapshot())
		res, err := probeServed(cfg, et.ops, tr, part(0.15))
		if err != nil {
			return nil, tally, nil, err
		}
		merge(&tally, res...)
		for n, v := range servedLayers(tr.snapshot()[mark:], res) {
			if _, ok := values[n]; !ok {
				values[n] = v
			}
		}
		notes = append(notes, "serving-layer metrics the workload does not pass through come from a probe through a router and two servers")
	}

	iso, err := isolate(cfg.w, et.ops, tr, part(0.35))
	if err != nil {
		return nil, tally, nil, err
	}
	for n, v := range iso {
		values[n] = v
	}
	values["runtime.gc_pause_p99_us"] = gcPauseQuantile(start, readMem(), 0.99)

	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeTrace(path, tr.snapshot(), programs); err != nil {
		return nil, tally, nil, fmt.Errorf("writing spans: %w", err)
	}
	notes = append(notes, "spans written to "+path, "pack.gbps counts computed bytes: each packed element read once and written once")
	return values, tally, notes, nil
}

func countSpans(pts []programTrace) int {
	n := 0
	for _, pt := range pts {
		n += len(pt.spans)
	}
	return n
}

// probeServed sends ops through a traced router and two servers for d and
// returns what its clients measured, the warm-up included.
func probeServed(cfg config, ops []*op, tr *tracer, d time.Duration) ([]clientResult, error) {
	if cfg.w.library {
		for _, o := range ops {
			body, err := o.encode()
			if err != nil {
				return nil, err
			}
			o.body = body
		}
		defer func() {
			for _, o := range ops {
				o.body = nil
			}
		}()
	}
	w := workload{name: cfg.w.name, backends: 2, routed: true}
	f, err := startFleet(w.backends, w.routed, w.clients(), tr, 1<<16)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, ops: ops, fleet: f, tr: tr}
	e.warmUp()
	res, _, _ := e.drive(cfg.seed, d)
	e.close()
	return append(res, e.warm), nil
}

// servedLayers derives the serving-layer metrics from a traced served
// drive: its spans and the response headers its clients saw.
func servedLayers(spans []span, res []clientResult) map[string]float64 {
	var handler, self, routerSpans, transport, queue []float64
	var batch, attempts float64
	outer := map[uint64]float64{} // request -> its outermost handler span, µs
	us := func(s span) float64 { return float64(s.end-s.start) / 1e3 }
	for _, s := range spans {
		switch s.name {
		case "server.handler":
			handler = append(handler, us(s))
			if s.queueUS >= 0 {
				self = append(self, us(s)-float64(s.queueUS))
			}
		case "router.handler":
			routerSpans = append(routerSpans, us(s))
		default:
			continue
		}
		if s.req != 0 {
			outer[s.req] = us(s)
		}
	}
	for _, s := range spans {
		if o, ok := outer[s.req]; ok && s.name == "client.request" {
			transport = append(transport, us(s)-o)
		}
	}
	n := 0.0
	for _, r := range res {
		for _, rp := range r.replies {
			queue = append(queue, float64(rp.queueUS))
			batch += float64(rp.batch)
			attempts += float64(rp.attempts)
			n++
		}
	}
	out := map[string]float64{
		"server.handler_us":        median(handler),
		"server.self_us":           median(self),
		"server.queue_wait_p50_us": bandQuantile(queue, 0.5, 0.05),
		"server.queue_wait_p99_us": bandQuantile(queue, 0.99, 0.005),
		"server.batch_size_mean":   batch / n,
		"http.transport_us":        median(transport),
	}
	if len(routerSpans) > 0 {
		out["router.hop_us"] = median(routerSpans) - out["server.handler_us"]
		out["router.attempts_per_req"] = attempts / n
	}
	return out
}
