// Command shalom-load is the closed-loop load generator for shalom-serve:
// it replays internal/workloads shape mixes against the serving front end
// from -c concurrent connections and reports achieved GFLOPS, p50/p99
// latency, shed rate and the observed coalescing (mean batch size, fraction
// of requests that shared a flush) — the repo's first end-to-end throughput
// benchmark.
//
// Usage:
//
//	shalom-load -addr http://127.0.0.1:8080[,URL...] [-n 1024] [-c 16]
//	            [-mix tiny|small|cp2k|mixed] [-timeout-ms 0]
//	            [-router] [-shed-retries 1]
//	            [-json FILE] [-replay DIR] [-replay-speed 1]
//
// -addr accepts a comma-separated target list: workers spray requests
// round-robin over all of them (naive multi-node load, the baseline the
// router's class-affine sharding is measured against). -router declares the
// single target a shalom-router: provenance is scraped from the router's
// own /healthz and per-request attempt counts are aggregated off
// X-Shalom-Attempts.
//
// Shed responses (429, or 503 carrying Retry-After) are retried up to
// -shed-retries times, honoring the server's jittered Retry-After hint
// instead of re-issuing immediately — the client half of the retry-storm
// fix. A request counts as shed only when its retries are exhausted.
//
// -replay DIR switches to deterministic replay: the journal in DIR
// (captured with `shalom-serve -journal DIR -journal-payloads`) is verified
// and re-issued with original arrival spacing (scaled by -replay-speed;
// 0 = flat out), asserting bitwise-identical results for every request the
// original run completed. Reports — both modes — embed the serve target's
// config hash and journal head from /healthz, so every artifact names the
// exact configuration and traffic segment it measured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libshalom/internal/mat"
	"libshalom/internal/server"
	"libshalom/internal/workloads"
)

// job is one pre-encoded request the workers replay.
type job struct {
	name  string
	body  []byte
	m, n  int
	f64   bool
	flops float64
}

// report is the machine-readable result (-json writes it verbatim).
type report struct {
	Addr        string `json:"addr"`
	Mix         string `json:"mix"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`
	// Nodes is the serving node count this row measured: the backend fleet
	// size behind the router (scraped from its /healthz), or the number of
	// -addr targets — the x-axis of the node-count scaling curve.
	Nodes  int  `json:"nodes"`
	Router bool `json:"router,omitempty"`

	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Retried counts shed re-issues that honored a Retry-After hint;
	// Hedged counts answered requests that needed more than one backend
	// attempt (router mode, off X-Shalom-Attempts).
	Retried int `json:"retried,omitempty"`
	Hedged  int `json:"hedged,omitempty"`

	WallSeconds  float64 `json:"wall_seconds"`
	GFLOPS       float64 `json:"gflops"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	MeanBatch    float64 `json:"mean_batch_size"`
	CoalescedPct float64 `json:"coalesced_pct"`
	ShedPct      float64 `json:"shed_pct"`

	// Provenance, scraped from the target's /healthz after the run: the
	// serving configuration's hash and — when the target journals — the
	// journal head this run's traffic landed under. A BENCH_serve.json row
	// is thereby attributable to an exact config and traffic segment.
	ConfigHash       string `json:"config_hash,omitempty"`
	JournalChainHead string `json:"journal_chain_head,omitempty"`
	JournalSegment   uint64 `json:"journal_segment,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "server base URL, or a comma-separated list for naive multi-target spraying")
	n := flag.Int("n", 1024, "total requests to issue")
	c := flag.Int("c", 16, "concurrent closed-loop workers")
	mix := flag.String("mix", "tiny", "workload mix: tiny, small, cp2k, or mixed")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request deadline in ms (0 = server default)")
	routerMode := flag.Bool("router", false, "the target is a shalom-router: scrape its fleet provenance and count hedged attempts")
	shedRetries := flag.Int("shed-retries", 1, "re-issues after a shed response, honoring its Retry-After hint (0 = give up immediately)")
	jsonPath := flag.String("json", "", "write the report as JSON to this file")
	replayDir := flag.String("replay", "", "replay a captured journal directory instead of generating load")
	replaySpeed := flag.Float64("replay-speed", 1, "replay pacing: 1 = original arrival spacing, 2 = twice as fast, 0 = flat out")
	flag.Parse()

	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSuffix(strings.TrimSpace(a), "/")
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		targets = append(targets, a)
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "shalom-load: -addr names no targets")
		os.Exit(2)
	}
	base := targets[0]
	if *routerMode && len(targets) > 1 {
		fmt.Fprintln(os.Stderr, "shalom-load: -router takes a single router target")
		os.Exit(2)
	}
	if *replayDir != "" {
		os.Exit(runReplay(base, *replayDir, *replaySpeed, *jsonPath))
	}
	jobs, err := buildJobs(*mix, *timeoutMS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shalom-load:", err)
		os.Exit(2)
	}

	var (
		issued    atomic.Int64
		okCount   atomic.Int64
		shedCount atomic.Int64
		errCount  atomic.Int64
		retried   atomic.Int64
		hedged    atomic.Int64
		flopsOK   atomic.Int64
		batchSum  atomic.Int64
		coalesced atomic.Int64
		latMu     sync.Mutex
		lats      []time.Duration
	)
	client := &http.Client{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(issued.Add(1)) - 1
				if i >= *n {
					return
				}
				j := jobs[i%len(jobs)]
				target := targets[i%len(targets)]
				t0 := time.Now()
				attempts := 0
			issue:
				resp, err := client.Post(target+"/v1/gemm", "application/octet-stream", bytes.NewReader(j.body))
				if err != nil {
					errCount.Add(1)
					fmt.Fprintln(os.Stderr, "shalom-load:", err)
					continue
				}
				shedClass := resp.StatusCode == http.StatusTooManyRequests ||
					(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "")
				switch {
				case resp.StatusCode == http.StatusOK:
					rh, _, _, err := server.DecodeResponse(resp.Body, j.m, j.n, j.f64)
					resp.Body.Close()
					if err != nil {
						errCount.Add(1)
						continue
					}
					okCount.Add(1)
					flopsOK.Add(int64(j.flops))
					batchSum.Add(int64(rh.BatchSize))
					if rh.BatchSize > 1 {
						coalesced.Add(1)
					}
					if a, _ := strconv.Atoi(resp.Header.Get("X-Shalom-Attempts")); a > 1 {
						hedged.Add(1)
					}
					lat := time.Since(t0)
					latMu.Lock()
					lats = append(lats, lat)
					latMu.Unlock()
				case shedClass:
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					// Honor the server's jittered Retry-After instead of
					// re-issuing immediately — re-arriving in one synchronized
					// wave is how a shed storm feeds itself.
					if attempts < *shedRetries {
						attempts++
						retried.Add(1)
						if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
							if sec > 5 {
								sec = 5 // keep pathological hints from stalling the run
							}
							time.Sleep(time.Duration(sec) * time.Second)
						}
						goto issue
					}
					shedCount.Add(1)
				default:
					body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
					resp.Body.Close()
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "shalom-load: HTTP %d: %s\n", resp.StatusCode, strings.TrimSpace(string(body)))
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	r := report{
		Addr: strings.Join(targets, ","), Mix: *mix, Requests: *n, Concurrency: *c,
		Nodes: len(targets), Router: *routerMode,
		OK: int(okCount.Load()), Shed: int(shedCount.Load()), Errors: int(errCount.Load()),
		Retried: int(retried.Load()), Hedged: int(hedged.Load()),
		WallSeconds: wall.Seconds(),
	}
	if wall > 0 {
		r.GFLOPS = float64(flopsOK.Load()) / wall.Seconds() / 1e9
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		r.P50MS = float64(lats[len(lats)/2].Microseconds()) / 1e3
		r.P99MS = float64(lats[len(lats)*99/100].Microseconds()) / 1e3
		r.MeanBatch = float64(batchSum.Load()) / float64(len(lats))
		r.CoalescedPct = 100 * float64(coalesced.Load()) / float64(len(lats))
	}
	if *n > 0 {
		r.ShedPct = 100 * float64(r.Shed) / float64(*n)
	}
	if prov, err := scrapeProvenance(client, base); err == nil {
		r.ConfigHash = prov.ConfigHash
		if prov.Journal != nil {
			r.JournalChainHead = prov.Journal.ChainHead
			r.JournalSegment = prov.Journal.Segment
		}
		// Behind a router the node count is the fleet size, not the target
		// count: /healthz reports the backend table.
		if *routerMode && len(prov.Backends) > 0 {
			r.Nodes = len(prov.Backends)
		}
	} else {
		fmt.Fprintln(os.Stderr, "shalom-load: provenance scrape:", err)
	}

	nodes := fmt.Sprintf("%d nodes", r.Nodes)
	if r.Nodes == 1 {
		nodes = "1 node"
	}
	fmt.Printf("shalom-load: %d requests (%s mix, %d workers, %s) in %v\n", *n, *mix, *c, nodes, wall.Round(time.Millisecond))
	fmt.Printf("  ok %d, shed %d (%.1f%%), errors %d, retried %d, hedged %d\n", r.OK, r.Shed, r.ShedPct, r.Errors, r.Retried, r.Hedged)
	fmt.Printf("  throughput %.3f GFLOPS, latency p50 %.3fms p99 %.3fms\n", r.GFLOPS, r.P50MS, r.P99MS)
	fmt.Printf("  coalescing: mean batch size %.1f, %.1f%% of requests shared a flush\n", r.MeanBatch, r.CoalescedPct)

	if *jsonPath != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "shalom-load:", err)
			os.Exit(1)
		}
		fmt.Printf("  report written to %s\n", *jsonPath)
	}

	if r.Errors > 0 && r.OK == 0 {
		os.Exit(1)
	}
}

// buildJobs pre-encodes the request bodies of the chosen mix, so workers
// replay bytes instead of re-marshalling per request.
func buildJobs(mix string, timeoutMS int) ([]job, error) {
	var f32Shapes, f64Shapes []workloads.Shape
	switch mix {
	case "tiny":
		// The §7.2 small-GEMM regime's lower edge: the sizes where per-call
		// overhead dominates hardest and coalescing pays most.
		f32Shapes = []workloads.Shape{
			{M: 8, N: 8, K: 8}, {M: 16, N: 16, K: 16}, {M: 12, N: 12, K: 12},
		}
	case "small":
		f32Shapes = workloads.SmallSquareSweep()
	case "cp2k":
		f64Shapes = workloads.CP2K()
	case "mixed":
		f32Shapes = workloads.SmallSquareSweep()[:8]
		f64Shapes = workloads.CP2K()
	default:
		return nil, fmt.Errorf("unknown -mix %q (want tiny, small, cp2k, or mixed)", mix)
	}
	rng := mat.NewRNG(1)
	var jobs []job
	add := func(s workloads.Shape, f64 bool) error {
		prec := "f32"
		if f64 {
			prec = "f64"
		}
		h := server.Header{
			Precision: prec, Mode: "NN",
			M: s.M, N: s.N, K: s.K,
			Alpha: 1, Beta: 0, TimeoutMS: timeoutMS,
		}
		var buf bytes.Buffer
		var err error
		if f64 {
			a := mat.RandomF64(s.M, s.K, rng).Data
			b := mat.RandomF64(s.K, s.N, rng).Data
			err = server.EncodeRequest(&buf, h, nil, nil, nil, a, b, nil)
		} else {
			a := mat.RandomF32(s.M, s.K, rng).Data
			b := mat.RandomF32(s.K, s.N, rng).Data
			err = server.EncodeRequest(&buf, h, a, b, nil, nil, nil, nil)
		}
		if err != nil {
			return err
		}
		jobs = append(jobs, job{
			name: s.String(), body: buf.Bytes(),
			m: s.M, n: s.N, f64: f64, flops: s.Flops(),
		})
		return nil
	}
	for _, s := range f32Shapes {
		if err := add(s, false); err != nil {
			return nil, err
		}
	}
	for _, s := range f64Shapes {
		if err := add(s, true); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}
