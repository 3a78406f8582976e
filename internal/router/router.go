// Package router is LibShalom's fleet front door: an HTTP tier that shards
// GEMM requests across N shalom-serve backends by shape class and keeps the
// fleet serving through node failure.
//
// Sharding is class-affine: the (precision, mode, shape class) key each
// backend's coalescer batches on is rendezvous-hashed over the backend set,
// so every class has one owning backend (whose coalescer sees the densest
// possible stream of that class, raising mean batch size) plus a stable
// failover order. Routing consumes live health from two sources — periodic
// /readyz probes and passive per-request outcomes — feeding an
// outlier-ejection state machine: consecutive 5xx/connect failures eject a
// backend from rotation, exponential-backoff readiness probes readmit it.
// Failed or shed attempts are retried ("hedged") on the next-preferred
// backend under a per-request retry budget, with the request's timeout_ms
// rewritten to the remaining deadline on every attempt; an optional hedge
// delay additionally races a slow preferred backend against its failover
// before any failure is observed. Draining backends (readiness 503) are
// routed around without penalty, and the router itself drains the same way
// shalom-serve does: stop admitting, answer every in-flight request, exit.
package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libshalom"
	"libshalom/internal/faults"
	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// Config is the routing policy. Zero fields select the documented defaults.
type Config struct {
	// Backends are the shalom-serve base URLs the router shards over.
	Backends []string
	// ProbeInterval is the active readiness-probe period. Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe. Default 1s.
	ProbeTimeout time.Duration
	// EjectThreshold is how many consecutive 5xx/connect failures eject a
	// backend. Default 3.
	EjectThreshold int
	// ReadmitBase is the first readmission-probe cooldown after an
	// ejection; each further trip doubles it up to ReadmitBase<<6.
	// Default 500ms.
	ReadmitBase time.Duration
	// RetryBudget is how many additional backends a request may be hedged
	// onto after its first attempt. Default 2.
	RetryBudget int
	// HedgeDelay, when positive, launches a concurrent attempt on the
	// next-preferred backend if the current one has not answered within
	// the delay — the latency hedge. Zero (default) disables it; failures
	// and sheds still retry immediately.
	HedgeDelay time.Duration
	// DefaultTimeout is the overall deadline for requests that carry no
	// timeout_ms; zero means no deadline.
	DefaultTimeout time.Duration
	// RetryAfter and RetryAfterJitter shape the Retry-After hint on
	// router-shed responses: the value is RetryAfter plus a uniform whole
	// number of seconds in [0, RetryAfterJitter], desynchronizing client
	// retry storms. Defaults 1 and 1.
	RetryAfter       int
	RetryAfterJitter int
	// MaxPayloadBytes caps a request's operand payload at the router.
	// Default 64 MiB (the serving default).
	MaxPayloadBytes int64
	// BaseContext parents the prober and every forward attempt; it should
	// be the router's lifecycle context. Nil selects context.Background().
	BaseContext context.Context
	// Telemetry, when non-nil, records the router counter/gauge families
	// and serves /metrics, /snapshot and /trace. Nil disables telemetry at
	// zero cost — the nil-receiver off path.
	Telemetry *telemetry.Recorder
	// Transport overrides the forward/probe transport (tests inject
	// failure shims). Nil selects http.DefaultTransport.
	Transport http.RoundTripper
	// Logf, when non-nil, receives one line per fleet event (ejection,
	// readmission, drain detection).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.EjectThreshold <= 0 {
		c.EjectThreshold = 3
	}
	if c.ReadmitBase <= 0 {
		c.ReadmitBase = 500 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.RetryAfterJitter < 0 {
		c.RetryAfterJitter = 0
	} else if c.RetryAfterJitter == 0 {
		c.RetryAfterJitter = 1
	}
	if c.MaxPayloadBytes <= 0 {
		c.MaxPayloadBytes = server.DefaultMaxPayloadBytes
	}
	return c
}

// Router is the sharded front door. It implements http.Handler:
//
//	POST /v1/gemm   one GEMM request, forwarded to its class's backend
//	GET  /healthz   router liveness + the per-backend fleet table
//	GET  /readyz    200 while the router admits traffic and at least one
//	                backend is eligible; 503 otherwise
//	GET  /metrics   Prometheus exposition (router families + per-backend
//	                series), /snapshot and /trace as usual
type Router struct {
	cfg      Config
	tel      *telemetry.Recorder
	m        metrics
	cfgHash  string
	backends []*backend
	client   *http.Client
	mux      *http.ServeMux
	base     context.Context

	draining atomic.Bool
	inFlight atomic.Int64

	probeStop context.CancelFunc
	probeDone chan struct{}
	startOnce sync.Once
	closeOnce sync.Once
}

// New builds a Router over the configured backend set.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background() //shalom:allow ctxflow — documented default when the caller sets no BaseContext
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	rt := &Router{
		cfg:    cfg,
		tel:    cfg.Telemetry,
		client: &http.Client{Transport: transport},
		mux:    http.NewServeMux(),
		base:   base,
	}
	for i, raw := range cfg.Backends {
		u := strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if u == "" {
			return nil, fmt.Errorf("router: empty backend URL at index %d", i)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		// Backends start healthy and ready: the fleet serves from the first
		// request, and the first probe tick corrects any that are not.
		rt.backends = append(rt.backends, &backend{index: i, id: u, state: StateHealthy, ready: true})
	}
	rt.cfgHash = configHash(rt.cfg, rt.backends)
	rt.declareMetrics()
	rt.mux.HandleFunc("/v1/gemm", rt.handleGEMM)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/readyz", rt.handleReady)
	if rt.tel.Enabled() {
		h := rt.tel.Handler()
		rt.mux.Handle("/metrics", h)
		rt.mux.Handle("/snapshot", h)
		rt.mux.Handle("/trace", h)
	}
	return rt, nil
}

// metrics are the router's families, declared on Config.Telemetry: how
// many requests were forwarded, how many attempts the hedging and retry
// machinery spent on them, and how the ejection state machine moved.
type metrics struct {
	forwarded, attempts, retries, hedges, shed, errors, rejected *telemetry.Counter
	ejections, readmissions                                      *telemetry.Counter
}

// declareMetrics declares the router's families, and the per-backend
// series the aggregate families summarize, read from the fleet table at
// scrape time.
func (rt *Router) declareMetrics() {
	t := rt.tel
	rt.m = metrics{
		forwarded:    t.Counter("libshalom_router_requests_forwarded_total", "Requests answered 200 off a backend."),
		attempts:     t.Counter("libshalom_router_attempts_total", "Forward attempts to backends (first tries, retries and hedges)."),
		retries:      t.Counter("libshalom_router_retries_total", "Failure-triggered re-attempts on the next-preferred backend."),
		hedges:       t.Counter("libshalom_router_hedges_total", "Latency-triggered concurrent attempts on the next-preferred backend."),
		shed:         t.Counter("libshalom_router_requests_shed_total", "Requests the router answered 429/503 (no backend admitted them)."),
		errors:       t.Counter("libshalom_router_requests_error_total", "Requests the router answered 502/504 after exhausting retries or deadline."),
		rejected:     t.Counter("libshalom_router_requests_rejected_total", "Requests refused at the router's decode step (HTTP 400)."),
		ejections:    t.Counter("libshalom_router_ejections_total", "Backends ejected by the outlier state machine."),
		readmissions: t.Counter("libshalom_router_readmissions_total", "Ejected backends readmitted after a successful backoff probe."),
	}
	t.GaugeFunc("libshalom_router_backend_up", "Backend eligibility: 1 routed-to, 0 out of rotation.",
		[]string{"backend", "state"}, func(emit telemetry.Emit) {
			for _, b := range rt.backends {
				h := b.health()
				up := 0.0
				if h.State == "healthy" && h.Ready {
					up = 1
				}
				emit(up, h.URL, h.State)
			}
		})
	t.CounterFunc("libshalom_router_backend_requests_total", "Per-backend request outcomes observed by the router.",
		[]string{"backend", "outcome"}, func(emit telemetry.Emit) {
			for _, b := range rt.backends {
				h := b.health()
				emit(float64(h.Routed), h.URL, "ok")
				emit(float64(h.Failures), h.URL, "failure")
				emit(float64(h.Sheds), h.URL, "shed")
			}
		})
}

// configHash digests the routing policy and backend set into the
// provenance hash /healthz reports, mirroring the server's: two router
// benchmark rows with the same hash routed the same fleet the same way.
func configHash(cfg Config, backends []*backend) string {
	h := sha256.New()
	fmt.Fprintf(h, "probe=%s probe_timeout=%s eject=%d readmit=%s retries=%d hedge=%s timeout=%s retry_after=%d+%d max_payload=%d",
		cfg.ProbeInterval, cfg.ProbeTimeout, cfg.EjectThreshold, cfg.ReadmitBase,
		cfg.RetryBudget, cfg.HedgeDelay, cfg.DefaultTimeout,
		cfg.RetryAfter, cfg.RetryAfterJitter, cfg.MaxPayloadBytes)
	for _, b := range backends {
		fmt.Fprintf(h, " backend=%s", b.id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigHash is the provenance hash of the router's effective configuration.
func (rt *Router) ConfigHash() string { return rt.cfgHash }

// ServeHTTP dispatches to the router's endpoints.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the active readiness prober. Idempotent.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(rt.base)
		rt.probeStop = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	})
}

// Close stops the prober. Idempotent; safe without Start.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		if rt.probeStop != nil {
			rt.probeStop()
			<-rt.probeDone
		}
	})
}

// Drain stops admitting requests (readiness goes 503 immediately) and
// waits until every in-flight request has been answered; ctx bounds the
// wait. After Drain the caller shuts the listener down.
func (rt *Router) Drain(ctx context.Context) error {
	rt.draining.Store(true)
	// Polling an atomic count (the server's drain pattern) rather than a
	// WaitGroup: admissions race the draining flag, and WaitGroup forbids
	// Add concurrent with Wait. Two consecutive zero reads one tick apart
	// close the flag-check/increment window.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	zeros := 0
	for zeros < 2 {
		if rt.inFlight.Load() == 0 {
			zeros++
		} else {
			zeros = 0
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			if rt.inFlight.Load() == 0 {
				return nil
			}
			return fmt.Errorf("router: drain interrupted with %d requests in flight: %w",
				rt.inFlight.Load(), ctx.Err())
		}
	}
	return nil
}

// Draining reports whether the router has stopped admitting requests.
func (rt *Router) Draining() bool { return rt.draining.Load() }

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// eligibleCounts counts the backends eligible for routing and those
// ejected.
func (rt *Router) eligibleCounts() (eligible, ejected int) {
	for _, b := range rt.backends {
		if b.eligible() {
			eligible++
		}
		if b.isEjected() {
			ejected++
		}
	}
	return
}

// probeLoop is the active health scanner: every tick it probes each
// healthy backend's readiness and each ejected backend whose readmission
// cooldown has expired.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	rt.probeSweep(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			rt.probeSweep(ctx)
		}
	}
}

// probeSweep probes every due backend concurrently and waits for the
// verdicts, so one blackholed node cannot stall the others' probes.
func (rt *Router) probeSweep(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		if !b.probeDue(now) {
			continue
		}
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probe issues one readiness probe and applies its verdict to the state
// machine.
func (rt *Router) probe(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.id+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // prober shutting down, not a backend verdict
		}
		if b.probeFail(err.Error(), rt.cfg, time.Now()) {
			rt.m.ejections.Add(1)
			rt.logf("router: backend %s EJECTED (probe: %v)", b.id, err)
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if b.probeOK() {
			rt.m.readmissions.Add(1)
			rt.logf("router: backend %s READMITTED", b.id)
		}
	case http.StatusServiceUnavailable:
		// Alive but not ready — a draining node. Routed around, never
		// penalized: drain is deliberate, not an outlier.
		b.probeNotReady(time.Now())
	default:
		if b.probeFail(fmt.Sprintf("probe status %d", resp.StatusCode), rt.cfg, time.Now()) {
			rt.m.ejections.Add(1)
			rt.logf("router: backend %s EJECTED (probe status %d)", b.id, resp.StatusCode)
		}
	}
}

// attemptOutcome classifies one forward attempt.
type attemptOutcome int

const (
	outcomeOK       attemptOutcome = iota // 200: relay and finish
	outcomeShed                           // 429: backend loaded, try the next
	outcomeNotReady                       // 503: backend draining, try the next
	outcomeFail                           // 5xx/connect failure: counts toward ejection, try the next
	outcomeTerminal                       // 400/404/504…: the backend answered about the request itself — relay verbatim
)

// attemptResult is one attempt's verdict, delivered on the attempt channel.
type attemptResult struct {
	be          *backend
	outcome     attemptOutcome
	status      int
	body        []byte
	contentType string
	err         error
}

// handleGEMM is the routed request path: classify, order by rendezvous
// preference, and walk the order with hedged retries until one backend
// answers or the budget/deadline runs out.
func (rt *Router) handleGEMM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "router: POST only", http.StatusMethodNotAllowed)
		return
	}
	if rt.draining.Load() {
		rt.shedResponse(w, "router: draining")
		return
	}
	rt.inFlight.Add(1)
	defer rt.inFlight.Add(-1)

	body := http.MaxBytesReader(w, r.Body, int64(server.MaxHeaderBytes)+rt.cfg.MaxPayloadBytes)
	hdr, payload, err := readRequest(body, rt.cfg.MaxPayloadBytes)
	if err != nil {
		rt.m.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	classKey := fmt.Sprintf("%s/%s/%s", hdr.Precision, hdr.Mode,
		telemetry.ClassifyShape(hdr.M, hdr.N, hdr.K))
	order := preference(classKey, rt.backends)

	// The overall deadline: the request's own timeout_ms, else the router
	// default. Attempts rewrite timeout_ms to what remains, so a retry
	// never grants the fleet more time than the client asked for.
	ctx := r.Context()
	var deadline time.Time
	timeout := time.Duration(hdr.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = rt.cfg.DefaultTimeout
	}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	maxAttempts := 1 + rt.cfg.RetryBudget
	if maxAttempts > len(order) {
		maxAttempts = len(order)
	}
	results := make(chan attemptResult, len(order))
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	tried := make(map[*backend]bool, len(order))
	launched := 0

	// launch starts an attempt on the next-preferred untried backend,
	// preferring eligible ones and falling back to any untried backend when
	// the whole fleet looks ineligible (a stale probe beats giving up).
	launch := func(hedge, retry bool) bool {
		var pick *backend
		for _, b := range order {
			if !tried[b] && b.eligible() {
				pick = b
				break
			}
		}
		if pick == nil {
			for _, b := range order {
				if !tried[b] {
					pick = b
					break
				}
			}
		}
		if pick == nil {
			return false
		}
		tried[pick] = true
		launched++
		rt.m.attempts.Add(1)
		if retry {
			rt.m.retries.Add(1)
		}
		if hedge {
			rt.m.hedges.Add(1)
		}
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go rt.attempt(actx, pick, hdr, payload, deadline, results)
		return true
	}

	if !launch(false, false) {
		rt.shedResponse(w, "router: no backends available")
		return
	}
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeDelay > 0 {
		t := time.NewTimer(rt.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}

	outstanding := 1
	lastOutcome := outcomeFail
	lastErr := "no attempt completed"
	for outstanding > 0 {
		select {
		case res := <-results:
			outstanding--
			switch res.outcome {
			case outcomeOK:
				rt.m.forwarded.Add(1)
				rt.relay(w, res, launched)
				return
			case outcomeTerminal:
				rt.relay(w, res, launched)
				return
			default:
				lastOutcome = res.outcome
				if res.err != nil {
					lastErr = res.err.Error()
				} else {
					lastErr = fmt.Sprintf("backend %s answered %d", res.be.id, res.status)
				}
				if launched < maxAttempts && launch(false, true) {
					outstanding++
				}
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAttempts && launch(true, false) {
				outstanding++
			}
		case <-ctx.Done():
			rt.m.errors.Add(1)
			http.Error(w, "router: deadline exceeded before any backend answered", http.StatusGatewayTimeout)
			return
		}
	}
	// Every attempt the budget allowed has failed or been shed.
	switch lastOutcome {
	case outcomeShed, outcomeNotReady:
		rt.shedResponse(w, "router: all preferred backends shed the request")
	default:
		rt.m.errors.Add(1)
		http.Error(w, "router: all attempts failed: "+lastErr, http.StatusBadGateway)
	}
}

// attempt forwards the request to one backend, classifies the outcome, and
// applies the passive health verdict before reporting back.
func (rt *Router) attempt(ctx context.Context, b *backend, hdr server.Header, payload []byte, deadline time.Time, results chan<- attemptResult) {
	res := rt.forward(ctx, b, hdr, payload, deadline)
	switch res.outcome {
	case outcomeOK:
		b.recordSuccess()
	case outcomeShed:
		b.recordShed()
	case outcomeNotReady:
		b.recordNotReady()
		rt.logf("router: backend %s draining — routing around it", b.id)
	case outcomeTerminal:
		b.recordResponsive()
	case outcomeFail:
		if ctx.Err() == context.Canceled {
			// Cancelled by a winning sibling attempt (or a departing
			// client), not a backend verdict: no failure accrues.
			break
		}
		errStr := fmt.Sprintf("status %d", res.status)
		if res.err != nil {
			errStr = res.err.Error()
		}
		if b.recordFailure(errStr, rt.cfg, time.Now()) {
			rt.m.ejections.Add(1)
			rt.logf("router: backend %s EJECTED (%s)", b.id, errStr)
		}
	}
	results <- res
}

// forward performs the HTTP exchange for one attempt. The request's
// timeout_ms is rewritten to the time remaining before the overall
// deadline, so the backend's admission control and the router agree on how
// long the request has left.
func (rt *Router) forward(ctx context.Context, b *backend, hdr server.Header, payload []byte, deadline time.Time) attemptResult {
	res := attemptResult{be: b}

	// Fault points, in injection order: a slow backend delays, a reset
	// fails fast, a blackhole swallows the attempt until its context dies.
	if faults.Fire(faults.RouterSlowBackend) {
		rt.tel.FaultInjected(faults.RouterSlowBackend)
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			res.outcome, res.err = outcomeFail, ctx.Err()
			return res
		}
	}
	if faults.Fire(faults.RouterConnReset) {
		rt.tel.FaultInjected(faults.RouterConnReset)
		res.outcome, res.err = outcomeFail, fmt.Errorf("injected connection reset by %s", b.id)
		return res
	}
	if faults.Fire(faults.RouterBackendBlackhole) {
		rt.tel.FaultInjected(faults.RouterBackendBlackhole)
		<-ctx.Done()
		res.outcome, res.err = outcomeFail, fmt.Errorf("blackholed attempt to %s: %w", b.id, ctx.Err())
		return res
	}

	if !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			res.outcome, res.err = outcomeFail, context.DeadlineExceeded
			return res
		}
		ms := int(remaining / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		hdr.TimeoutMS = ms
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		res.outcome, res.err = outcomeFail, err
		return res
	}
	line = append(line, '\n')
	// Every attempt sends the one payload all attempts share, read-only: a
	// net.Buffers consumes its own slice headers, never the bytes. Not an
	// io.MultiReader: net/http drains a sent body into io.Discard, and
	// MultiReader's WriteTo allocates 32 KiB to do that.
	body := func() io.ReadCloser {
		b := net.Buffers{line, payload}
		return io.NopCloser(&b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.id+"/v1/gemm", body())
	if err != nil {
		res.outcome, res.err = outcomeFail, err
		return res
	}
	req.ContentLength = int64(len(line) + len(payload))
	req.GetBody = func() (io.ReadCloser, error) { return body(), nil }
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rt.client.Do(req)
	if err != nil {
		res.outcome, res.err = outcomeFail, err
		return res
	}
	defer resp.Body.Close()
	// Buffer the whole response before relaying: a backend killed
	// mid-response must surface as a retryable failure, not a torn client
	// stream, so only a clean end of the body ends the read. A 200
	// answer's buffer starts at its bound, at most firstAllocBytes; any
	// other answer is short and grows as it is read.
	limit := server.ResponseBytes(hdr)
	var answer bytes.Buffer
	if resp.StatusCode == http.StatusOK {
		answer.Grow(int(min(limit, firstAllocBytes)))
	}
	if _, err := answer.ReadFrom(io.LimitReader(resp.Body, limit)); err != nil {
		res.outcome, res.err = outcomeFail, fmt.Errorf("reading backend response: %w", err)
		return res
	}
	res.status = resp.StatusCode
	res.body = answer.Bytes()
	res.contentType = resp.Header.Get("Content-Type")
	switch resp.StatusCode {
	case http.StatusOK:
		res.outcome = outcomeOK
	case http.StatusTooManyRequests:
		res.outcome = outcomeShed
	case http.StatusServiceUnavailable:
		res.outcome = outcomeNotReady
	case http.StatusInternalServerError, http.StatusBadGateway:
		res.outcome = outcomeFail
	default:
		// 400s and 504s are verdicts about the request (malformed, or its
		// own deadline expired) — relaying them is the correct answer.
		res.outcome = outcomeTerminal
	}
	return res
}

// relay writes a buffered backend response to the client, annotated with
// which backend answered and how many attempts it took.
func (rt *Router) relay(w http.ResponseWriter, res attemptResult, attempts int) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.Header().Set("X-Shalom-Backend", res.be.id)
	w.Header().Set("X-Shalom-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// shedResponse answers 503 with a jittered Retry-After: the router-level
// shed signal, desynchronized so a storm of shed clients does not re-arrive
// in one synchronized wave.
func (rt *Router) shedResponse(w http.ResponseWriter, msg string) {
	rt.m.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfter()))
	http.Error(w, msg, http.StatusServiceUnavailable)
}

func (rt *Router) retryAfter() int {
	v := rt.cfg.RetryAfter
	if rt.cfg.RetryAfterJitter > 0 {
		v += rand.IntN(rt.cfg.RetryAfterJitter + 1)
	}
	return v
}

// readRequest splits one wire request into its parsed header and raw
// payload bytes. Validation is the minimum routing needs, plus the payload
// limit that bounds the buffer the payload is read into; the owning
// backend re-validates everything at decode time.
func readRequest(r io.Reader, maxPayload int64) (server.Header, []byte, error) {
	var h server.Header
	br := server.AcquireReader(r)
	defer server.ReleaseReader(br)
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return h, nil, fmt.Errorf("router: request header exceeds %d bytes", server.MaxHeaderBytes)
	}
	if err != nil {
		return h, nil, fmt.Errorf("router: reading request header: %w", err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, nil, fmt.Errorf("router: malformed request header: %w", err)
	}
	if h.Precision != "f32" && h.Precision != "f64" {
		return h, nil, fmt.Errorf("router: unknown precision %q (want f32 or f64)", h.Precision)
	}
	mode, err := libshalom.ParseMode(h.Mode)
	if err != nil {
		return h, nil, fmt.Errorf("router: %w", err)
	}
	h.Mode = mode.String()
	if h.M <= 0 || h.N <= 0 || h.K <= 0 {
		return h, nil, fmt.Errorf("router: non-positive dimensions %dx%dx%d", h.M, h.N, h.K)
	}
	if h.TimeoutMS < 0 {
		return h, nil, fmt.Errorf("router: negative timeout_ms %d", h.TimeoutMS)
	}
	size, ok := server.PayloadBytes(h, maxPayload)
	if !ok {
		return h, nil, fmt.Errorf("router: %dx%dx%d %s payload exceeds the limit %d bytes", h.M, h.N, h.K, h.Precision, maxPayload)
	}
	payload, err := readPayload(br, size)
	if err != nil {
		return h, nil, fmt.Errorf("router: reading request payload: %w", err)
	}
	return h, payload, nil
}

// firstAllocBytes caps a buffer the router sizes from a header before the
// bytes it is for arrive: a longer payload or answer grows as it is read,
// so a peer that declares a large body and stalls pins at most this much.
// It covers every small GEMM's payload.
const firstAllocBytes = 1 << 20

// readPayload reads the rest of a request body into one buffer of size
// bytes, the payload its header implies, of which at most firstAllocBytes
// is allocated before the bytes arrive. A body that ends cleanly at any
// other length is kept byte for byte, so that the backend's decoder stays
// the judge of it. Only io.EOF ends the body: a body torn mid-upload is an
// error.
func readPayload(br *bufio.Reader, size int64) ([]byte, error) {
	payload := make([]byte, 0, min(size, firstAllocBytes))
	for {
		if len(payload) == cap(payload) {
			// Full: grow only if the body has more, doubling, so the
			// buffer stays within about twice the bytes that arrived.
			switch _, err := br.Peek(1); err {
			case nil:
			case io.EOF:
				return payload, nil
			default:
				return nil, err
			}
			payload = slices.Grow(payload, len(payload)+1)
		}
		n, err := br.Read(payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+n]
		if err == io.EOF {
			return payload, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// healthBody is the router's /healthz response.
type healthBody struct {
	// Status is "ok" with the whole fleet eligible, "degraded" with some
	// backends out, "unavailable" with none eligible (also HTTP 503).
	Status     string          `json:"status"`
	Draining   bool            `json:"draining"`
	ConfigHash string          `json:"config_hash"`
	Eligible   int             `json:"eligible"`
	Ejected    int             `json:"ejected"`
	Backends   []BackendHealth `json:"backends"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	el, ej := rt.eligibleCounts()
	body := healthBody{
		Status:     "ok",
		Draining:   rt.draining.Load(),
		ConfigHash: rt.cfgHash,
		Eligible:   el,
		Ejected:    ej,
	}
	for _, b := range rt.backends {
		body.Backends = append(body.Backends, b.health())
	}
	switch {
	case el == 0:
		body.Status = "unavailable"
	case el < len(rt.backends):
		body.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	if body.Status == "unavailable" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(body)
}

// handleReady is the router's own readiness: 503 the moment a drain starts
// or the fleet has no eligible backend, 200 otherwise — what an upstream
// balancer or rolling-restart controller watches.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	el, _ := rt.eligibleCounts()
	ready := !rt.draining.Load() && el > 0
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ready": ready, "draining": rt.draining.Load(), "eligible": el,
	})
}
