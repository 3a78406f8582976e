package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"libshalom/internal/server"
	"libshalom/internal/telemetry"
)

// stubBackend is a scriptable shalom-serve stand-in: it counts /v1/gemm
// hits, records the header each forward carried, and answers with a
// programmable status. Its /readyz answers 200 or 503 off a flag.
type stubBackend struct {
	srv *httptest.Server

	mu       sync.Mutex
	hits     int
	headers  []server.Header
	payloads []string

	status atomic.Int32 // /v1/gemm answer; 200 default
	ready  atomic.Bool  // /readyz verdict
	torn   atomic.Bool  // answer 200, send half its Content-Length, drop the connection
}

func newStub(t *testing.T) *stubBackend {
	t.Helper()
	s := &stubBackend{}
	s.status.Store(http.StatusOK)
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/gemm", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var h server.Header
		line, payload, ok := strings.Cut(string(body), "\n")
		if ok {
			json.Unmarshal([]byte(line), &h)
		}
		s.mu.Lock()
		s.hits++
		s.headers = append(s.headers, h)
		s.payloads = append(s.payloads, payload)
		s.mu.Unlock()
		if s.torn.Load() {
			w.Header().Set("Content-Length", "64")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, strings.Repeat("x", 32))
			w.(http.Flusher).Flush()
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		code := int(s.status.Load())
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, "stub %d", code)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprint(w, "{}")
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubBackend) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

func (s *stubBackend) lastHeader() server.Header {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.headers) == 0 {
		return server.Header{}
	}
	return s.headers[len(s.headers)-1]
}

func (s *stubBackend) lastPayload() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.payloads) == 0 {
		return ""
	}
	return s.payloads[len(s.payloads)-1]
}

func newTestRouter(t *testing.T, cfg Config, stubs ...*stubBackend) *Router {
	t.Helper()
	for _, s := range stubs {
		cfg.Backends = append(cfg.Backends, s.srv.URL)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func gemmRequest(classHeader string) *http.Request {
	body := strings.NewReader(classHeader + "\npayload-bytes")
	return httptest.NewRequest(http.MethodPost, "/v1/gemm", body)
}

const tinyHeader = `{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"alpha":1}`

func do(rt *Router, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec
}

// Rendezvous preference must be a permutation, deterministic, and stable
// under node removal: dropping one backend leaves every other class's owner
// unchanged.
func TestRendezvousStableUnderRemoval(t *testing.T) {
	mk := func(ids ...string) []*backend {
		var out []*backend
		for i, id := range ids {
			out = append(out, &backend{index: i, id: id})
		}
		return out
	}
	full := mk("http://a", "http://b", "http://c")
	classes := []string{"f32/NN/tiny", "f32/NN/small", "f64/NT/skinny-k", "f32/TT/large", "f64/NN/tall"}
	owner := map[string]string{}
	for _, c := range classes {
		order := preference(c, full)
		if len(order) != 3 {
			t.Fatalf("%s: preference returned %d backends", c, len(order))
		}
		if preference(c, full)[0] != order[0] {
			t.Fatalf("%s: preference not deterministic", c)
		}
		owner[c] = order[0].id
	}
	// Remove backend b: classes b did not own must keep their owner.
	reduced := mk("http://a", "http://c")
	for _, c := range classes {
		if owner[c] == "http://b" {
			continue
		}
		if got := preference(c, reduced)[0].id; got != owner[c] {
			t.Fatalf("%s: owner changed %s -> %s after removing an unrelated node", c, owner[c], got)
		}
	}
}

// Every request of one class must land on the same backend — the class
// affinity that keeps that backend's coalescer stream dense.
func TestClassAffinity(t *testing.T) {
	s1, s2, s3 := newStub(t), newStub(t), newStub(t)
	rt := newTestRouter(t, Config{}, s1, s2, s3)
	for i := 0; i < 8; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	counts := []int{s1.count(), s2.count(), s3.count()}
	hot := 0
	for _, c := range counts {
		if c > 0 {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("one class spread over %d backends (%v), want exactly 1", hot, counts)
	}
}

// A failing preferred backend retries onto the next in preference order and
// the client still gets its 200, annotated with the attempt count. Failing
// includes a 200 torn mid-body: a backend killed mid-answer must never reach
// the client as a truncated 200.
func TestHedgedRetryOnFailure(t *testing.T) {
	for _, torn := range []bool{false, true} {
		s1, s2, s3 := newStub(t), newStub(t), newStub(t)
		stubs := []*stubBackend{s1, s2, s3}
		tel := telemetry.New(telemetry.Options{})
		rt := newTestRouter(t, Config{Telemetry: tel}, s1, s2, s3)
		// Find the class owner and make it fail.
		do(rt, gemmRequest(tinyHeader))
		var ownerIdx int
		for i, s := range stubs {
			if s.count() > 0 {
				ownerIdx = i
			}
		}
		if torn {
			stubs[ownerIdx].torn.Store(true)
		} else {
			stubs[ownerIdx].status.Store(http.StatusInternalServerError)
		}
		rec := do(rt, gemmRequest(tinyHeader))
		if rec.Code != http.StatusOK {
			t.Fatalf("torn %v: status = %d, want 200 via failover", torn, rec.Code)
		}
		if got := rec.Header().Get("X-Shalom-Attempts"); got != "2" {
			t.Fatalf("torn %v: X-Shalom-Attempts = %q, want 2", torn, got)
		}
		if be := rec.Header().Get("X-Shalom-Backend"); be == stubs[ownerIdx].srv.URL {
			t.Fatalf("torn %v: winning backend is the failing owner %s", torn, be)
		}
		if got := tel.Snapshot().Metric("libshalom_router_retries_total"); got != 1 {
			t.Fatalf("torn %v: retries_total = %v, want 1", torn, got)
		}
	}
}

// A shedding (429) owner also fails over — and clears, not grows, the
// owner's failure streak: load is not an outlier.
func TestShedFailsOverWithoutPenalty(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	rt := newTestRouter(t, Config{EjectThreshold: 2}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusTooManyRequests)
	for i := 0; i < 4; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, rec.Code)
		}
	}
	for _, b := range rt.backends {
		if b.isEjected() {
			t.Fatalf("backend %s ejected by 429s — shedding must not count toward ejection", b.id)
		}
	}
}

// EjectThreshold consecutive failures eject the backend; once ejected it
// receives no traffic, and a recovered /readyz probe readmits it.
func TestEjectionAndReadmission(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{
		EjectThreshold: 2,
		ProbeInterval:  20 * time.Millisecond,
		ReadmitBase:    20 * time.Millisecond,
		Telemetry:      tel,
	}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusInternalServerError)
	owner.ready.Store(false)
	for i := 0; i < 2; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover", i, rec.Code)
		}
	}
	var ownerBE *backend
	for _, b := range rt.backends {
		if b.id == owner.srv.URL {
			ownerBE = b
		}
	}
	if !ownerBE.isEjected() {
		t.Fatalf("owner not ejected after %d consecutive failures", 2)
	}
	// Ejected: traffic flows without touching the owner at all.
	before := owner.count()
	for i := 0; i < 3; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("post-ejection request %d: status %d", i, rec.Code)
		}
	}
	if owner.count() != before {
		t.Fatal("ejected backend still received traffic")
	}
	// Recover the owner and let the prober readmit it.
	owner.status.Store(http.StatusOK)
	owner.ready.Store(true)
	rt.Start()
	deadline := time.Now().Add(3 * time.Second)
	for ownerBE.isEjected() {
		if time.Now().After(deadline) {
			t.Fatal("owner never readmitted after recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
		t.Fatalf("post-readmission request: status %d", rec.Code)
	}
	snap := tel.Snapshot()
	ejections := snap.Metric("libshalom_router_ejections_total")
	readmissions := snap.Metric("libshalom_router_readmissions_total")
	if ejections == 0 || readmissions == 0 {
		t.Fatalf("telemetry ejections=%v readmissions=%v, want both > 0", ejections, readmissions)
	}
}

// A draining backend (503) is routed around without ejection or penalty —
// deliberate drain is not an outlier.
func TestDrainingBackendRoutedAroundWithoutPenalty(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	stubs := []*stubBackend{s1, s2}
	rt := newTestRouter(t, Config{EjectThreshold: 2}, s1, s2)
	do(rt, gemmRequest(tinyHeader))
	var owner *stubBackend
	for _, s := range stubs {
		if s.count() > 0 {
			owner = s
		}
	}
	owner.status.Store(http.StatusServiceUnavailable)
	for i := 0; i < 4; i++ {
		if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
			t.Fatalf("request %d during backend drain: status %d", i, rec.Code)
		}
	}
	for _, b := range rt.backends {
		if b.isEjected() {
			t.Fatal("draining backend was ejected")
		}
	}
	// The first 503 marked the owner not-ready: later requests skip it.
	if owner.count() > 2 {
		t.Fatalf("draining owner saw %d forwards, want at most 2 (probe + detection)", owner.count())
	}
}

// Attempts rewrite timeout_ms to the remaining overall deadline, so a
// retried request never grants more time than the client asked for.
func TestTimeoutRewrittenPerAttempt(t *testing.T) {
	s1 := newStub(t)
	rt := newTestRouter(t, Config{}, s1)
	hdr := `{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"alpha":1,"timeout_ms":5000}`
	if rec := do(rt, gemmRequest(hdr)); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	got := s1.lastHeader().TimeoutMS
	if got <= 0 || got > 5000 {
		t.Fatalf("forwarded timeout_ms = %d, want in (0, 5000]", got)
	}
}

// With the whole fleet failing, the router answers 502 after exhausting the
// retry budget — and a fleet that sheds answers 503 with Retry-After.
func TestExhaustedBudgetVerdicts(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{Telemetry: tel}, s1, s2)
	s1.status.Store(http.StatusInternalServerError)
	s2.status.Store(http.StatusInternalServerError)
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusBadGateway {
		t.Fatalf("all-failing fleet: status %d, want 502", rec.Code)
	}
	s1.torn.Store(true)
	s2.torn.Store(true)
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusBadGateway {
		t.Fatalf("all-torn fleet: status %d, want 502", rec.Code)
	}
	s1.torn.Store(false)
	s2.torn.Store(false)
	s1.status.Store(http.StatusTooManyRequests)
	s2.status.Store(http.StatusTooManyRequests)
	rec := do(rt, gemmRequest(tinyHeader))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-shedding fleet: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("router shed response missing Retry-After")
	}
	snap := tel.Snapshot()
	if errs, shed := snap.Metric("libshalom_router_requests_error_total"), snap.Metric("libshalom_router_requests_shed_total"); errs != 2 || shed != 1 {
		t.Fatalf("requests_error_total = %v, requests_shed_total = %v; want 2 and 1", errs, shed)
	}
}

// Malformed requests are rejected at the router, 400, without consuming a
// backend attempt.
func TestMalformedRejectedAtRouter(t *testing.T) {
	s1 := newStub(t)
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{Telemetry: tel}, s1)
	for _, hdr := range []string{
		`{"precision":"f16","mode":"NN","m":4,"n":4,"k":4}`,
		`{"precision":"f32","mode":"XX","m":4,"n":4,"k":4}`,
		`{"precision":"f32","mode":"NN","m":0,"n":4,"k":4}`,
		`{"precision":"f32","mode":"NN","m":4,"n":4,"k":4,"timeout_ms":-1}`,
		`not json at all`,
		// Implied payloads over MaxPayloadBytes: 384 MiB, and one whose
		// products overflow int64. The router answers them itself.
		`{"precision":"f64","mode":"NN","m":4096,"n":4096,"k":4096,"alpha":1,"beta":1}`,
		`{"precision":"f32","mode":"NN","m":1099511627776,"n":1099511627776,"k":1099511627776,"alpha":1}`,
	} {
		if rec := do(rt, gemmRequest(hdr)); rec.Code != http.StatusBadRequest {
			t.Fatalf("header %q: status %d, want 400", hdr, rec.Code)
		}
	}
	// A body torn mid-upload, which net/http reports as
	// io.ErrUnexpectedEOF, is refused too, not forwarded as a short one.
	torn := io.MultiReader(strings.NewReader(tinyHeader+"\n"+strings.Repeat("x", 77)), iotest.ErrReader(io.ErrUnexpectedEOF))
	if rec := do(rt, httptest.NewRequest(http.MethodPost, "/v1/gemm", torn)); rec.Code != http.StatusBadRequest {
		t.Fatalf("torn upload: status %d, want 400", rec.Code)
	}
	if s1.count() != 0 {
		t.Fatalf("malformed requests reached the backend %d times", s1.count())
	}
	if got := tel.Snapshot().Metric("libshalom_router_requests_rejected_total"); got != 8 {
		t.Fatalf("requests_rejected_total = %v, want 8", got)
	}
}

// Dimensions whose payload passes the limit can still imply an answer no
// buffer can hold: f32 m = n = 2²³, k = 1 ships 64 MiB but would answer
// 256 TiB. The router must not size anything from that answer bound: it
// relays the backend's verdict and keeps serving.
func TestUnallocatableAnswerRelaysVerdict(t *testing.T) {
	s1 := newStub(t)
	rt := newTestRouter(t, Config{}, s1)
	s1.status.Store(http.StatusBadRequest)
	hdr := `{"precision":"f32","mode":"NN","m":8388608,"n":8388608,"k":1,"alpha":1}`
	if rec := do(rt, gemmRequest(hdr)); rec.Code != http.StatusBadRequest {
		t.Fatalf("header %s: status %d, want the backend's 400", hdr, rec.Code)
	}
	s1.status.Store(http.StatusOK)
	if rec := do(rt, gemmRequest(tinyHeader)); rec.Code != http.StatusOK {
		t.Fatalf("valid request after it: status %d, want 200", rec.Code)
	}
}

// The payload reaches the backend byte for byte whatever its length, on
// every attempt: the exact length its header implies, a body cut short,
// and one with trailing bytes. The backend's decoder, not the router,
// judges the mismatched ones.
func TestPayloadForwardedVerbatim(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	rt := newTestRouter(t, Config{EjectThreshold: 100}, s1, s2)
	s1.status.Store(http.StatusInternalServerError)
	s2.status.Store(http.StatusInternalServerError)
	exact := strings.Repeat("0123456789abcdef", 8) // f32 4×4×4, β = 0: (16 + 16) × 4 = 128 bytes
	for name, payload := range map[string]string{"exact": exact, "short": exact[:77], "long": exact + "trailing"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/gemm", strings.NewReader(tinyHeader+"\n"+payload))
		if rec := do(rt, req); rec.Code != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502 once both backends fail", name, rec.Code)
		}
		for i, s := range []*stubBackend{s1, s2} {
			if got := s.lastPayload(); got != payload {
				t.Fatalf("%s: backend %d received %d payload bytes %q, want %d", name, i, len(got), got, len(payload))
			}
		}
	}
}

// The router's own rolling drain: readiness flips 503 the moment Drain
// starts, new requests are refused with Retry-After, and Drain returns only
// after in-flight requests are answered.
func TestRouterDrain(t *testing.T) {
	s1 := newStub(t)
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-release
		w.Write([]byte("slow ok"))
	}))
	defer slow.Close()
	rt, err := New(Config{Backends: []string{slow.URL, s1.srv.URL}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()

	// Park one request in flight against the slow backend — whichever class
	// it owns; probe classes until the slow stub gets the request.
	inflight := make(chan int, 1)
	started := false
	for m := 4; m <= 64 && !started; m *= 2 {
		hdr := fmt.Sprintf(`{"precision":"f32","mode":"NN","m":%d,"n":4,"k":4,"alpha":1}`, m)
		order := preference(fmt.Sprintf("f32/NN/%s", telemetry.ClassifyShape(m, 4, 4)), rt.backends)
		if order[0].id != slow.URL {
			continue
		}
		started = true
		go func() {
			rec := do(rt, gemmRequest(hdr))
			inflight <- rec.Code
		}()
	}
	if !started {
		t.Skip("no probed class owned by the slow backend (hash landed all on the fast stub)")
	}
	time.Sleep(50 * time.Millisecond) // let the request reach the backend

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- rt.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond)

	// Readiness must be down and new work refused while the drain waits.
	if rec := do(rt, httptest.NewRequest(http.MethodGet, "/readyz", nil)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}
	rec := do(rt, gemmRequest(tinyHeader))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("request during drain: %d (Retry-After %q), want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain answered %d, want 200", code)
	}
}

// /healthz reports the fleet table and degrades its status with the fleet.
func TestHealthzFleetTable(t *testing.T) {
	s1, s2 := newStub(t), newStub(t)
	rt := newTestRouter(t, Config{EjectThreshold: 1}, s1, s2)
	rec := do(rt, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var body struct {
		Status     string          `json:"status"`
		ConfigHash string          `json:"config_hash"`
		Eligible   int             `json:"eligible"`
		Backends   []BackendHealth `json:"backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if body.Status != "ok" || body.Eligible != 2 || len(body.Backends) != 2 || body.ConfigHash == "" {
		t.Fatalf("healthz = %+v", body)
	}
	// Eject one: status degrades.
	s1.status.Store(http.StatusInternalServerError)
	s2.status.Store(http.StatusInternalServerError)
	do(rt, gemmRequest(tinyHeader))
	rec = do(rt, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body.Status == "ok" {
		t.Fatalf("healthz status %q after fleet-wide failures, want degraded/unavailable", body.Status)
	}
}

// /metrics exposes the router families plus per-backend series.
func TestMetricsExposition(t *testing.T) {
	s1 := newStub(t)
	tel := telemetry.New(telemetry.Options{})
	rt := newTestRouter(t, Config{Telemetry: tel}, s1)
	do(rt, gemmRequest(tinyHeader))
	rec := do(rt, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := rec.Body.String()
	for _, want := range []string{
		"libshalom_router_requests_forwarded_total 1",
		"libshalom_router_attempts_total 1",
		"libshalom_router_backend_up{",
		"libshalom_router_backend_requests_total{",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// The latency hedge: when the owner stalls past HedgeDelay, a concurrent
// attempt on the failover backend answers the request.
func TestLatencyHedge(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	fast := newStub(t)
	// Order the backends so the slow one can own some class; find a class it
	// owns and hedge off it.
	tel := telemetry.New(telemetry.Options{})
	rt, err := New(Config{Backends: []string{slow.URL, fast.srv.URL}, HedgeDelay: 30 * time.Millisecond, Telemetry: tel})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	var hdr string
	for m := 4; m <= 512; m *= 2 {
		ck := fmt.Sprintf("f32/NN/%s", telemetry.ClassifyShape(m, 4, 4))
		if preference(ck, rt.backends)[0].id == slow.URL {
			hdr = fmt.Sprintf(`{"precision":"f32","mode":"NN","m":%d,"n":4,"k":4,"alpha":1}`, m)
			break
		}
	}
	if hdr == "" {
		t.Skip("no probed class owned by the slow backend")
	}
	start := time.Now()
	rec := do(rt, gemmRequest(hdr))
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged request: status %d", rec.Code)
	}
	if be := rec.Header().Get("X-Shalom-Backend"); be != fast.srv.URL {
		t.Fatalf("winner = %s, want the fast hedge target", be)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged answer took %v", elapsed)
	}
	if got := tel.Snapshot().Metric("libshalom_router_hedges_total"); got != 1 {
		t.Fatalf("hedges_total = %v, want 1", got)
	}
}
