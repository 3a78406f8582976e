// Command shalom-router runs the fault-tolerant sharded router tier: an
// HTTP front door that shards GEMM requests across N shalom-serve backends
// by shape class (rendezvous hashing on the (precision, mode, class) key,
// so each backend's coalescer sees a denser stream of its classes), routes
// around unhealthy or draining nodes, hedges failed and slow attempts onto
// the next-preferred backend under a per-request retry budget, and drains
// gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	shalom-router -backends URL[,URL...]
//	              [-addr 127.0.0.1:9090] [-addr-file FILE]
//	              [-probe-interval 250ms] [-probe-timeout 1s]
//	              [-eject-threshold 3] [-readmit-base 500ms]
//	              [-retry-budget 2] [-hedge-delay 0]
//	              [-default-timeout 0] [-retry-after 1] [-retry-jitter 1]
//	              [-drain-timeout 30s]
//
// Health flows from two sources: periodic GET /readyz probes against every
// backend, and passive outcome tracking on the forward path. A backend that
// answers -eject-threshold consecutive 5xx/connect failures is ejected from
// rotation and readmitted only after a successful probe, with exponential
// backoff between probe attempts (-readmit-base doubling per trip). A
// backend whose readiness answers 503 is draining: routed around without
// penalty and readmitted the moment its readiness recovers.
//
// The router serves GET /healthz (fleet table + config hash), /readyz (its
// own drain state), and — always — /metrics, /snapshot and /trace with the
// router telemetry families and per-backend series.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"libshalom/internal/router"
	"libshalom/internal/telemetry"
)

func main() {
	backends := flag.String("backends", "", "comma-separated shalom-serve base URLs (required)")
	addr := flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "active readiness-probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	ejectThreshold := flag.Int("eject-threshold", 3, "consecutive failures that eject a backend")
	readmitBase := flag.Duration("readmit-base", 500*time.Millisecond, "first readmission cooldown (doubles per trip)")
	retryBudget := flag.Int("retry-budget", 2, "additional backends a request may be retried onto")
	hedgeDelay := flag.Duration("hedge-delay", 0, "launch a concurrent hedge attempt after this delay (0 = off)")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for requests that carry none (0 = unbounded)")
	retryAfter := flag.Int("retry-after", 1, "base Retry-After hint on shed responses, seconds")
	retryJitter := flag.Int("retry-jitter", 1, "uniform jitter added to Retry-After, seconds (negative = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "shalom-router: -backends is required (comma-separated shalom-serve URLs)")
		os.Exit(2)
	}

	// The lifecycle context parents the prober and every forward attempt.
	// Like shalom-serve's, it is not the signal context: a drain still has
	// in-flight forwards to finish, so it cancels only at process exit.
	lifecycle, stop := context.WithCancel(context.Background())
	defer stop()

	tel := telemetry.New(telemetry.Options{})
	rt, err := router.New(router.Config{
		Backends:         urls,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		EjectThreshold:   *ejectThreshold,
		ReadmitBase:      *readmitBase,
		RetryBudget:      *retryBudget,
		HedgeDelay:       *hedgeDelay,
		DefaultTimeout:   *defaultTimeout,
		RetryAfter:       *retryAfter,
		RetryAfterJitter: *retryJitter,
		BaseContext:      lifecycle,
		Telemetry:        tel,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shalom-router:", err)
		os.Exit(2)
	}
	rt.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shalom-router:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "shalom-router:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("shalom-router: listening on %s, sharding over %d backends (eject after %d, retry budget %d)\n",
		bound, len(urls), *ejectThreshold, *retryBudget)

	httpSrv := &http.Server{Handler: rt}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("shalom-router: %v — draining\n", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "shalom-router:", err)
		os.Exit(1)
	}

	// Rolling drain: readiness goes 503 immediately (an upstream balancer
	// stops sending), every in-flight forward is answered, then the
	// listener closes.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shalom-router: drain:", err)
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shalom-router: shutdown:", err)
		os.Exit(1)
	}
	rt.Close()

	snap := tel.Snapshot()
	n := func(name string) uint64 { return uint64(snap.Metric("libshalom_router_" + name)) }
	fmt.Printf("shalom-router: drained — forwarded %d, attempts %d, retries %d, hedges %d, shed %d, errors %d, ejections %d, readmissions %d\n",
		n("requests_forwarded_total"), n("attempts_total"), n("retries_total"), n("hedges_total"),
		n("requests_shed_total"), n("requests_error_total"), n("ejections_total"), n("readmissions_total"))
}
