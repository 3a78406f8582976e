package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
	"libshalom/internal/guard"
	"libshalom/internal/journal"
	"libshalom/internal/telemetry"
)

// Config is the serving policy. Zero fields select the documented defaults.
// There is no coalescing delay: a request to an idle class flushes on
// arrival, and requests batch only while a flush of their class runs.
type Config struct {
	// MaxBatch flushes a class queue as soon as this many requests are
	// resident, without waiting for the class's running flush to end.
	// Default 64.
	MaxBatch int
	// MaxBatchFlops flushes a class queue as soon as its queued work
	// exceeds this many flops, without waiting for the class's running
	// flush to end. Default 32e6.
	MaxBatchFlops float64
	// MaxQueue bounds each class queue; requests beyond it are shed with
	// HTTP 429. Default 1024.
	MaxQueue int
	// MaxInFlightFlops bounds the total flops of admitted-but-unanswered
	// requests across all classes — the backpressure signal. Requests
	// beyond it are shed with HTTP 429. Default 4e9.
	MaxInFlightFlops int64
	// DefaultTimeout applies to requests that do not carry a timeout_ms;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// RetryAfter is the Retry-After hint on shed responses, in seconds.
	// Default 1.
	RetryAfter int
	// RetryAfterJitter widens the hint: each shed response advertises
	// RetryAfter plus a uniform whole number of seconds in [0, jitter], so
	// a synchronized storm of shed clients is desynchronized instead of
	// re-arriving in one wave and being shed again. Default 1; negative
	// disables the jitter.
	RetryAfterJitter int
	// MaxDim caps each of m, n, k at decode time. Default 4096.
	MaxDim int
	// MaxPayloadBytes caps a request's operand payload. Default 64 MiB.
	MaxPayloadBytes int64
	// BaseContext is the parent of every flush's batch context. Deadlines
	// layer on top of it, and cancelling it aborts in-flight batches
	// between entries — it should be the server's lifecycle context (one
	// that outlives a drain-triggering signal, not the signal context
	// itself, or the drain's final flushes are cancelled too). Nil selects
	// context.Background().
	BaseContext context.Context
	// Journal, when non-nil, records every admitted request, flush, and
	// result into the tamper-evident journal. Nil (the default) disables
	// journaling at zero cost — the nil-receiver off path.
	Journal *journal.Writer
	// Attrib, when non-nil, is the live performance-attribution engine:
	// the server mounts its /attrib report, appends its gauge family to
	// /metrics, and summarises it in /healthz. Nil (the default) disables
	// attribution at zero cost — /attrib answers 404 and the hot path
	// carries only the recorder's sketch counters.
	Attrib *attrib.Engine
	// Autotune, when non-nil, is the traffic-adaptive kernel tuning loop:
	// the server mounts its /tune state-machine report, appends its gauge
	// family to /metrics, and summarises it in /healthz. The caller owns
	// the engine's lifecycle (Start before serving, Close on shutdown).
	// Nil (the default) disables autotuning — /tune answers 404 and no
	// tuning goroutine exists.
	Autotune *autotune.Engine
	// Pprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the server mux. Off by default: the profiling
	// surface is a debugging aid, not part of the serving contract.
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatchFlops <= 0 {
		c.MaxBatchFlops = 32e6
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxInFlightFlops <= 0 {
		c.MaxInFlightFlops = 4e9
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.RetryAfterJitter == 0 {
		c.RetryAfterJitter = 1
	} else if c.RetryAfterJitter < 0 {
		c.RetryAfterJitter = 0
	}
	if c.MaxDim <= 0 {
		c.MaxDim = DefaultMaxDim
	}
	if c.MaxPayloadBytes <= 0 {
		c.MaxPayloadBytes = DefaultMaxPayloadBytes
	}
	return c
}

// Server is the GEMM serving front end. It implements http.Handler:
//
//	POST /v1/gemm   one GEMM request (wire format in wire.go)
//	GET  /healthz   200 healthy / 503 while any breaker is open on the
//	                serving platform's kernel paths
//	GET  /metrics   Prometheus exposition (when the Context has telemetry):
//	                every family declared on its recorder, the attribution
//	                engine's and autotuner's included
//	GET  /snapshot  telemetry snapshot as JSON
//	GET  /trace     Chrome trace_event JSON
//	GET  /attrib    attribution report: efficiency accounts, drift events,
//	                ranked tuning candidates (404 when attribution is off)
//	GET  /tune      autotuner report: per-class tuning state machine and
//	                lifetime counters (404 when autotuning is off)
//
// Build it over a Context the caller owns; the caller closes that Context
// after Drain.
type Server struct {
	lib     *libshalom.Context
	cfg     Config
	jw      *journal.Writer
	cfgHash string
	co      *coalescer
	mux     *http.ServeMux
}

// metrics are the serving layer's families, declared on the Context's
// recorder so one scrape shows the front end next to the driver it feeds:
// admission outcomes and flush sizes (the coalescing win is batch sizes > 1).
type metrics struct {
	accepted, shed, expired, rejected, coalesced *telemetry.Counter
	batchSize                                    *telemetry.Histogram
}

func newMetrics(r *telemetry.Recorder) *metrics {
	return &metrics{
		accepted:  r.Counter("libshalom_server_requests_accepted_total", "Requests admitted into a coalescing queue."),
		shed:      r.Counter("libshalom_server_requests_shed_total", "Requests refused by admission control (HTTP 429)."),
		expired:   r.Counter("libshalom_server_requests_expired_total", "Admitted requests dropped before flush on an already-passed deadline."),
		rejected:  r.Counter("libshalom_server_requests_rejected_total", "Requests refused at decode time (HTTP 400)."),
		coalesced: r.Counter("libshalom_server_coalesced_requests_total", "Requests that shared a flush with at least one other request."),
		batchSize: r.Histogram("libshalom_server_batch_size", "Coalescer flush sizes, log2-bucketed.",
			telemetry.Log2{Buckets: 12, Scale: 1, NoSum: true}),
	}
}

// New builds a Server over lib. The Context's options shape the serving
// behaviour: WithTelemetry feeds /metrics, WithDeadline arms the
// stuck-worker watchdog under every flush, WithoutTransientRetry surfaces
// kernel panics as batch failures instead of degraded successes.
func New(lib *libshalom.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		lib:     lib,
		cfg:     cfg,
		jw:      cfg.Journal,
		cfgHash: configHash(lib, cfg),
		co:      newCoalescer(lib, cfg),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/gemm", s.handleGEMM)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	if h, ok := lib.TelemetryHandler(); ok {
		s.mux.Handle("/metrics", h)
		s.mux.Handle("/snapshot", h)
		s.mux.Handle("/trace", h)
	}
	s.mux.Handle("/attrib", cfg.Attrib.Handler())
	s.mux.Handle("/tune", cfg.Autotune.Handler())
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// configHash digests the serving policy and platform into the provenance
// hash /healthz and load-test artifacts report: two BENCH_serve.json rows
// with the same config_hash ran the same serving configuration on the same
// platform model.
func configHash(lib *libshalom.Context, cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "platform=%s max_batch=%d max_batch_flops=%g max_queue=%d max_inflight_flops=%d default_timeout=%s retry_after=%d+%d max_dim=%d max_payload=%d journal=%t autotune=%t",
		lib.Platform().Name, cfg.MaxBatch, cfg.MaxBatchFlops,
		cfg.MaxQueue, cfg.MaxInFlightFlops, cfg.DefaultTimeout, cfg.RetryAfter,
		cfg.RetryAfterJitter, cfg.MaxDim, cfg.MaxPayloadBytes, cfg.Journal.Enabled(),
		cfg.Autotune != nil)
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigHash is the provenance hash of the server's effective configuration.
func (s *Server) ConfigHash() string { return s.cfgHash }

// wireParts re-encodes a decoded request into its canonical wire form, split
// into the header line (no newline) and the operand payload — what the
// journal's admit record carries. Encoding happens before submit: the flush
// goroutine overwrites req's C in place, so the bytes must be captured while
// the handler still owns them.
func wireParts(req *Request) (header, payload []byte, err error) {
	h := Header{
		Precision: "f32", Mode: req.Mode.String(),
		M: req.M, N: req.N, K: req.K,
		Alpha: req.Alpha, Beta: req.Beta,
		TimeoutMS: int(req.Timeout / time.Millisecond),
	}
	if req.F64 {
		h.Precision = "f64"
	}
	header, err = json.Marshal(h)
	if err != nil {
		return nil, nil, err
	}
	size, _ := PayloadBytes(h, math.MaxInt64)
	payload = make([]byte, size)
	n := 0
	if req.F64 {
		n += putF64s(payload[n:], req.A64)
		n += putF64s(payload[n:], req.B64)
		if req.Beta != 0 {
			putF64s(payload[n:], req.C64)
		}
	} else {
		n += putF32s(payload[n:], req.A32)
		n += putF32s(payload[n:], req.B32)
		if req.Beta != 0 {
			putF32s(payload[n:], req.C32)
		}
	}
	return header, payload, nil
}

// handleGEMM is the request path: decode, admit, wait for the coalesced
// flush, answer.
func (s *Server) handleGEMM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "server: POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.co.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		http.Error(w, "server: draining", http.StatusServiceUnavailable)
		return
	}
	body := http.MaxBytesReader(w, r.Body, int64(MaxHeaderBytes)+s.cfg.MaxPayloadBytes)
	req, err := DecodeRequest(body, s.cfg.MaxDim, s.cfg.MaxPayloadBytes)
	if err != nil {
		s.co.m.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	p := &pending{
		req:  req,
		enq:  now,
		done: make(chan result, 1),
	}
	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		p.deadline = now.Add(timeout)
	}
	// Capture the canonical wire bytes before submit: once the request is in
	// a queue, the flush goroutine owns (and overwrites) its C operand.
	var jHdr, jPayload []byte
	if s.jw.Enabled() {
		jHdr, jPayload, _ = wireParts(req)
	}
	if !s.co.submit(p) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		if s.co.draining.Load() {
			http.Error(w, "server: draining", http.StatusServiceUnavailable)
			return
		}
		s.co.m.shed.Add(1)
		http.Error(w, "server: overloaded, request shed", http.StatusTooManyRequests)
		return
	}
	s.co.m.accepted.Add(1)
	jid := s.jw.Admit(now, jHdr, jPayload)
	res := <-p.done
	if s.jw.Enabled() {
		var rh [32]byte
		if res.status == http.StatusOK {
			if req.F64 {
				rh = journal.HashF64s(req.C64)
			} else {
				rh = journal.HashF32s(req.C32)
			}
		}
		s.jw.Result(jid, res.status, res.batchSize, rh)
	}
	if res.status != http.StatusOK {
		http.Error(w, res.msg, res.status)
		return
	}
	s.writeResult(w, req, res)
}

// writeResult streams a 200 response: the JSON header line, then the m×n C
// payload.
func (s *Server) writeResult(w http.ResponseWriter, req *Request, res result) {
	w.Header().Set("Content-Type", "application/octet-stream")
	rh := ResponseHeader{
		Status:      "ok",
		BatchSize:   res.batchSize,
		QueueWaitUS: res.queueWait.Microseconds(),
	}
	line, err := json.Marshal(rh)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return
	}
	if req.F64 {
		_ = writeF64s(w, req.C64)
		return
	}
	_ = writeF32s(w, req.C32)
}

// healthzBody is the /healthz response.
type healthzBody struct {
	Status   string `json:"status"` // "ok", "probing" or "degraded"
	Platform string `json:"platform"`
	Draining bool   `json:"draining"`
	// ConfigHash is the provenance digest of the effective serving policy;
	// load-test artifacts embed it so a result row names the exact
	// configuration it measured.
	ConfigHash string              `json:"config_hash"`
	Breakers   []guard.Degradation `json:"breakers,omitempty"`
	// Journal is the durability view of the request journal — active
	// segment, chain head, fsync lag — present only when journaling is on.
	Journal *journal.Status `json:"journal,omitempty"`
	// Attribution summarises the performance-attribution engine — closed
	// windows, drift totals, calibration, and the current top tuning
	// candidate — present only when attribution is on.
	Attribution *attribHealth `json:"attribution,omitempty"`
	// Autotune summarises the tuning loop — lifetime counters and any
	// class currently canarying or promoted — present only when the loop
	// is on.
	Autotune *tuneHealth `json:"autotune,omitempty"`
}

// tuneHealth is the /healthz autotuner section.
type tuneHealth struct {
	Searched uint64 `json:"searched"`
	Promoted uint64 `json:"promoted"`
	Reverted uint64 `json:"reverted"`
	// Canary names the class currently canarying a candidate, as
	// "precision/class kernel", empty when none is in flight.
	Canary string `json:"canary,omitempty"`
}

// attribHealth is the /healthz attribution section.
type attribHealth struct {
	Windows      uint64  `json:"windows"`
	DriftEvents  uint64  `json:"drift_events"`
	Calibration  float64 `json:"calibration"`
	TopCandidate string  `json:"top_candidate,omitempty"`
	TopScore     float64 `json:"top_score,omitempty"`
}

// handleHealth reports the self-healing state of the serving platform's
// kernel paths: 503 while any breaker is open (the fast path is demoted and
// not yet probing its way back), 200 otherwise — a probing breaker still
// answers every request, so it degrades the status without failing the
// check.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	plat := s.lib.Platform().Name
	body := healthzBody{Status: "ok", Platform: plat, Draining: s.co.draining.Load(), ConfigHash: s.cfgHash}
	if s.jw.Enabled() {
		js := s.jw.Status()
		body.Journal = &js
	}
	if s.cfg.Attrib != nil {
		rep := s.cfg.Attrib.Report()
		ah := &attribHealth{Windows: rep.Windows, DriftEvents: rep.DriftTotal, Calibration: rep.Calibration}
		if len(rep.Candidates) > 0 {
			top := rep.Candidates[0]
			ah.TopCandidate = fmt.Sprintf("%s/%s/%s/%s", top.Precision, top.Mode, top.ShapeClass, top.Kernel)
			ah.TopScore = top.Score
		}
		body.Attribution = ah
	}
	if s.cfg.Autotune != nil {
		rep := s.cfg.Autotune.Report()
		th := &tuneHealth{Searched: rep.Searched, Promoted: rep.Promoted, Reverted: rep.Reverted}
		for _, c := range rep.Classes {
			if c.State == "canary" {
				th.Canary = fmt.Sprintf("%s/%s %s", c.Precision, c.ShapeClass, c.Kernel)
			}
		}
		body.Autotune = th
	}
	for _, path := range []string{guard.PathF32, guard.PathF64} {
		switch guard.StateOf(plat, path) {
		case guard.StateOpen:
			body.Status = "degraded"
		case guard.StateProbing:
			if body.Status == "ok" {
				body.Status = "probing"
			}
		}
	}
	for _, b := range guard.Breakers() {
		if b.Platform == plat && (b.Kernel == guard.PathF32 || b.Kernel == guard.PathF64) {
			body.Breakers = append(body.Breakers, b)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if body.Status == "degraded" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(body)
}

// retryAfter is the jittered Retry-After value for one shed response:
// RetryAfter plus a uniform draw from [0, RetryAfterJitter] seconds.
func (s *Server) retryAfter() int {
	v := s.cfg.RetryAfter
	if s.cfg.RetryAfterJitter > 0 {
		v += rand.IntN(s.cfg.RetryAfterJitter + 1)
	}
	return v
}

// handleReady is the readiness endpoint — distinct from /healthz liveness.
// It answers 503 the moment a drain starts, before the drain finishes, so a
// router or balancer probing readiness stops sending new work while the
// server is still answering its admitted backlog. /healthz keeps reporting
// breaker health throughout: a draining server is not-ready but alive.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.co.draining.Load()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]bool{"ready": !draining, "draining": draining})
}

// Drain is the graceful-shutdown protocol: stop admitting (new requests see
// 503), force-flush every resident batch, and wait until every admitted
// request has been answered. After Drain returns the caller shuts the HTTP
// listener down (handlers are only writing responses at that point) and
// closes the Context. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.co.draining.Store(true)
	// A submit that raced the flag either admitted its request before the
	// sweep reached its class, or sees the flag and refuses: one sweep
	// catches every admitted request.
	s.co.flushAll()
	done := make(chan struct{})
	go func() {
		s.co.flushes.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with %d flops in flight: %w",
			s.co.inFlight.Load(), ctx.Err())
	}
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool { return s.co.draining.Load() }
