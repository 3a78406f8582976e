// Command shalom-serve runs the GEMM serving front end: an HTTP server that
// accepts small and irregular GEMM requests (JSON header + little-endian
// binary payload, see internal/server), coalesces concurrent requests of
// one (precision, mode, shape class) into single batch dispatches on a
// shared Context, sheds load once its admission bounds fill, and drains
// gracefully on SIGINT/SIGTERM — stop accepting, flush resident batches,
// answer every admitted request, close the Context.
//
// Usage:
//
//	shalom-serve [-addr 127.0.0.1:8080] [-addr-file FILE]
//	             [-platform kp920] [-threads N]
//	             [-max-batch 64] [-max-queue 1024]
//	             [-max-inflight-flops 4e9] [-default-timeout 0]
//	             [-deadline 0] [-no-retry]
//	             [-journal DIR] [-journal-fsync anchor|always|none]
//	             [-journal-segment-bytes N] [-journal-payloads]
//	             [-attrib] [-attrib-window 1s] [-attrib-margin 0.35]
//	             [-attrib-windows 3] [-attrib-min-calls 16]
//	             [-autotune] [-autotune-interval 2s] [-autotune-margin 0.1]
//	             [-autotune-min-score 0.01]
//	             [-detune-class CLASS]
//	             [-pprof]
//	             [-chaos-slow-class CLASS] [-chaos-slow-delay 2ms]
//
// The server always runs with telemetry: GET /metrics serves the Prometheus
// exposition (driver metrics plus the serving-layer counters), /healthz the
// self-healing breaker state (503 while any breaker is open on the serving
// platform), /snapshot and /trace the usual telemetry views.
//
// -attrib (on by default) runs the live performance-attribution engine:
// GET /attrib serves the rolling efficiency accounts, drift events, and the
// ranked tuning-candidate feed; /metrics grows the attribution gauge
// family, and drift events are logged as they fire. -pprof mounts
// net/http/pprof under /debug/pprof/ for live profiling; it is off by
// default. -chaos-slow-class arms the slow-shape-class fault point against
// one class (tiny, small, medium, large, irregular) — the attribution
// smoke test uses it to seed a visible regression.
//
// -autotune runs the traffic-adaptive kernel tuning loop on top of the
// attribution feed: hot × underperforming shape classes are searched over
// the proven generator-family domain, candidates pass the full proof gate
// (isacheck contract + symbolic family proof + vexec-vs-reference
// validation), and the winner is hot-swapped in as a dispatch override
// behind a canary breaker. GET /tune serves the per-class state machine;
// promotions and reverts land in the journal when one is configured.
// -detune-class seeds a deliberately bad serving tile on one f32 class —
// the smoke test uses it to give the autotuner something to beat.
//
// -journal DIR enables the tamper-evident request journal: every admitted
// request, flush, result, and breaker transition lands in merkle-anchored
// segments under DIR (verify them with shalom-journal, replay them with
// shalom-load -replay). -journal-payloads additionally captures operand
// payloads — required for replay, off by default.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/journal"
	"libshalom/internal/platform"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// parseShapeClass resolves a class label (tiny, small, medium, large,
// irregular) to its telemetry index.
func parseShapeClass(name string) (uint8, bool) {
	for _, c := range telemetry.ShapeClasses() {
		if c.String() == name {
			return uint8(c), true
		}
	}
	return 0, false
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	platName := flag.String("platform", "kp920", "platform model (kp920, phytium2000, thunderx2)")
	threads := flag.Int("threads", 0, "thread width of the shared context (0 = automatic policy)")
	maxBatch := flag.Int("max-batch", 64, "flush a class queue at this many resident requests")
	maxQueue := flag.Int("max-queue", 1024, "per-class admission queue bound (shed beyond it)")
	maxInFlight := flag.Float64("max-inflight-flops", 4e9, "admitted-but-unanswered flops bound (shed beyond it)")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for requests that carry none (0 = unbounded)")
	deadline := flag.Duration("deadline", 0, "per-call watchdog budget on the shared context (0 = off)")
	noRetry := flag.Bool("no-retry", false, "disable the transient-fault retry: kernel panics fail the batch instead of degrading it")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	journalDir := flag.String("journal", "", "enable the tamper-evident request journal in this directory")
	journalFsync := flag.String("journal-fsync", "anchor", "journal durability policy: anchor, always, or none")
	journalSegBytes := flag.Int64("journal-segment-bytes", 8<<20, "rotate journal segments at this size")
	journalPayloads := flag.Bool("journal-payloads", false, "capture operand payloads in admit records (required for -replay)")
	attribOn := flag.Bool("attrib", true, "run the performance-attribution engine (serves /attrib)")
	attribWindow := flag.Duration("attrib-window", time.Second, "attribution accounting window")
	attribMargin := flag.Float64("attrib-margin", 0.35, "relative shortfall below calibrated par that counts as drift")
	attribWindows := flag.Int("attrib-windows", 3, "consecutive below-par windows before a drift event fires")
	attribMinCalls := flag.Uint64("attrib-min-calls", 16, "clean calls a window needs before a key is scored")
	autotuneOn := flag.Bool("autotune", false, "run the traffic-adaptive kernel tuning loop (serves /tune)")
	autotuneInterval := flag.Duration("autotune-interval", 2*time.Second, "tuning loop period")
	autotuneMargin := flag.Float64("autotune-margin", 0.10, "modeled-throughput improvement a candidate must show over the incumbent")
	autotuneMinScore := flag.Float64("autotune-min-score", 0.01, "attribution score (hot share × shortfall) floor for tuning a class")
	detuneClass := flag.String("detune-class", "", "seed a deliberately bad f32 serving tile on this class (tiny, small, medium, large, irregular)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	chaosSlowClass := flag.String("chaos-slow-class", "", "arm the slow-shape-class fault point against this class (tiny, small, medium, large, irregular)")
	chaosSlowDelay := flag.Duration("chaos-slow-delay", 2*time.Millisecond, "per-call delay the armed slow-shape-class point injects")
	flag.Parse()

	plat := platform.ByName(*platName)
	if plat == nil {
		fmt.Fprintf(os.Stderr, "shalom-serve: unknown platform %q\n", *platName)
		os.Exit(2)
	}
	opts := []libshalom.Option{
		libshalom.WithPlatform(plat),
		libshalom.WithTelemetry(),
		libshalom.WithThreads(*threads),
	}
	if *deadline > 0 {
		opts = append(opts, libshalom.WithDeadline(*deadline))
	}
	if *noRetry {
		opts = append(opts, libshalom.WithoutTransientRetry())
	}
	lib := libshalom.New(opts...)

	var jw *journal.Writer
	if *journalDir != "" {
		policy, err := journal.ParseFsyncPolicy(*journalFsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shalom-serve:", err)
			os.Exit(2)
		}
		jw, err = journal.Open(journal.Options{
			Dir:             *journalDir,
			SegmentBytes:    *journalSegBytes,
			Fsync:           policy,
			CapturePayloads: *journalPayloads,
			Telemetry:       lib.TelemetryRecorder(),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "shalom-serve:", err)
			os.Exit(1)
		}
		if n := jw.Truncated(); n > 0 {
			fmt.Printf("shalom-serve: journal recovery truncated a %d-byte torn tail\n", n)
		}
		// Breaker trips and closes flow into the journal alongside the
		// requests that provoked them.
		guard.SetTransitionObserver(jw.GuardObserver())
	}

	if *chaosSlowClass != "" {
		class, ok := parseShapeClass(*chaosSlowClass)
		if !ok {
			fmt.Fprintf(os.Stderr, "shalom-serve: unknown shape class %q\n", *chaosSlowClass)
			os.Exit(2)
		}
		faults.SetSlowClass(class, *chaosSlowDelay)
		faults.Arm(faults.SlowShapeClass, faults.Unlimited)
		fmt.Printf("shalom-serve: CHAOS slow-shape-class armed: %s += %v per call\n",
			*chaosSlowClass, *chaosSlowDelay)
	}

	var eng *attrib.Engine
	if *attribOn {
		eng = attrib.New(attrib.Config{
			Recorder:       lib.TelemetryRecorder(),
			Platform:       plat,
			Window:         *attribWindow,
			Margin:         *attribMargin,
			DriftWindows:   *attribWindows,
			MinWindowCalls: *attribMinCalls,
			OnDrift: func(ev attrib.DriftEvent) {
				fmt.Printf("shalom-serve: DRIFT %s/%s/%s/%s: %.2f GFLOPS measured vs %.2f predicted (rel-eff %.2f, %d windows below par)\n",
					ev.Precision, ev.Mode, ev.ShapeClass, ev.Kernel,
					ev.Measured, ev.Predicted, ev.RelEff, ev.Windows)
			},
		})
		eng.Start()
		defer eng.Close()
	}

	if *detuneClass != "" {
		class, ok := parseShapeClass(*detuneClass)
		if !ok || class == uint8(telemetry.ShapeEmpty) {
			fmt.Fprintf(os.Stderr, "shalom-serve: unknown shape class %q\n", *detuneClass)
			os.Exit(2)
		}
		path := guard.MintOverridePath(4, *detuneClass)
		guard.SetOverride(4, class, guard.TileOverride{
			MR: 1, NR: 4, KC: 8, Kernel: "detuned-1x4", Path: path,
		})
		fmt.Printf("shalom-serve: DETUNE seeded f32/%s with tile 1x4 kc 8 (%s)\n",
			*detuneClass, path)
	}

	var tuner *autotune.Engine
	if *autotuneOn {
		tuner = autotune.New(autotune.Config{
			Recorder: lib.TelemetryRecorder(),
			Attrib:   eng,
			Platform: plat,
			Interval: *autotuneInterval,
			Margin:   *autotuneMargin,
			MinScore: *autotuneMinScore,
			Journal:  jw,
		})
		tuner.Start()
	}

	// The lifecycle context parents every flush's batch context. It is NOT
	// the signal context: a drain triggered by SIGTERM still has to run its
	// final flushes, so it only cancels after the drain completes (process
	// exit). This is the root the ctxflow analyzer makes library code
	// inherit instead of minting its own.
	lifecycle, stop := context.WithCancel(context.Background())
	defer stop()

	srv := server.New(lib, server.Config{
		MaxBatch:         *maxBatch,
		MaxQueue:         *maxQueue,
		MaxInFlightFlops: int64(*maxInFlight),
		DefaultTimeout:   *defaultTimeout,
		BaseContext:      lifecycle,
		Journal:          jw,
		Attrib:           eng,
		Autotune:         tuner,
		Pprof:            *pprofOn,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shalom-serve:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "shalom-serve:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("shalom-serve: listening on %s (platform %s, max-batch %d)\n",
		bound, plat.Name, *maxBatch)

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("shalom-serve: %v — draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "shalom-serve:", err)
		os.Exit(1)
	}

	// The drain protocol: stop admitting and answer every admitted request
	// first, then shut the listener down (handlers are only writing
	// responses by then), then release the context's pool.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shalom-serve: drain:", err)
		os.Exit(1)
	}
	if tuner != nil {
		// Stop tuning before the journal seals so a racing promotion cannot
		// append to a closed writer.
		tuner.Close()
		rep := tuner.Report()
		fmt.Printf("shalom-serve: autotune — searched %d, proved %d, rejected %d, canaried %d, promoted %d, reverted %d\n",
			rep.Searched, rep.Proved, rep.Rejected, rep.Canaried, rep.Promoted, rep.Reverted)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shalom-serve: shutdown:", err)
		os.Exit(1)
	}
	lib.Close()
	if jw != nil {
		guard.SetTransitionObserver(nil)
		if err := jw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shalom-serve: journal close:", err)
			os.Exit(1)
		}
		js := jw.Status()
		fmt.Printf("shalom-serve: journal sealed — segment %d, %d records, %d anchors, chain head %s\n",
			js.Segment, js.Records, js.Anchors, js.ChainHead)
	}

	if eng != nil {
		eng.Close()
		fmt.Printf("shalom-serve: attribution — %d windows closed, %d drift events\n",
			eng.Windows(), eng.DriftTotal())
	}
	snap := lib.Snapshot()
	n := func(name string) uint64 { return uint64(snap.Metric(name)) }
	fmt.Printf("shalom-serve: drained — accepted %d, coalesced %d, shed %d, expired %d, rejected %d, flushes %d\n",
		n("libshalom_server_requests_accepted_total"), n("libshalom_server_coalesced_requests_total"), n("libshalom_server_requests_shed_total"),
		n("libshalom_server_requests_expired_total"), n("libshalom_server_requests_rejected_total"), n("libshalom_server_batch_size"))
}
