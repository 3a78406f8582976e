package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/guard"
	"libshalom/internal/mat"
	"libshalom/internal/server"
)

// env is one serving stack under test: a telemetry-enabled Context, the
// Server over it, and an httptest listener.
type env struct {
	lib *libshalom.Context
	srv *server.Server
	ts  *httptest.Server
}

func newEnv(t *testing.T, cfg server.Config, opts ...libshalom.Option) *env {
	t.Helper()
	opts = append([]libshalom.Option{libshalom.WithTelemetry()}, opts...)
	e := &env{lib: libshalom.New(opts...)}
	e.srv = server.New(e.lib, cfg)
	e.ts = httptest.NewServer(e.srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		e.ts.Close()
		e.lib.Close()
	})
	return e
}

// post sends one encoded request and fully reads the response.
func (e *env) post(t *testing.T, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, raw
}

// problem is one f32 GEMM request together with its direct-call reference.
type problem struct {
	h    server.Header
	body []byte
	want []float32 // from a threads=1 direct SGEMM
}

// newProblem builds an m×n×k NN f32 request and computes its reference on a
// single-threaded direct Context — the bitwise baseline the serving path
// must reproduce.
func newProblem(t testing.TB, direct *libshalom.Context, seed uint64, m, n, k int, timeoutMS int) *problem {
	t.Helper()
	rng := mat.NewRNG(seed)
	a := mat.RandomF32(m, k, rng)
	b := mat.RandomF32(k, n, rng)
	want := mat.NewF32(m, n)
	if err := direct.SGEMM(libshalom.NN, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		t.Fatalf("direct SGEMM: %v", err)
	}
	h := server.Header{Precision: "f32", Mode: "NN", M: m, N: n, K: k, Alpha: 1, TimeoutMS: timeoutMS}
	var buf bytes.Buffer
	if err := server.EncodeRequest(&buf, h, a.Data, b.Data, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	return &problem{h: h, body: buf.Bytes(), want: want.Data}
}

// serverStats are the serving-layer families, read off a context's
// snapshot.
type serverStats struct{ Accepted, Shed, Expired, Rejected, Coalesced, Flushes uint64 }

func statsOf(lib *libshalom.Context) serverStats {
	snap := lib.Snapshot()
	n := func(name string) uint64 { return uint64(snap.Metric(name)) }
	return serverStats{
		Accepted: n("libshalom_server_requests_accepted_total"), Shed: n("libshalom_server_requests_shed_total"),
		Expired: n("libshalom_server_requests_expired_total"), Rejected: n("libshalom_server_requests_rejected_total"),
		Coalesced: n("libshalom_server_coalesced_requests_total"), Flushes: n("libshalom_server_batch_size"),
	}
}

// reply is one response read in full by postAsync.
type reply struct {
	resp *http.Response
	raw  []byte
	err  error
}

// postAsync sends body from its own goroutine, for a request that parks in
// a held class queue.
func (e *env) postAsync(body []byte) <-chan reply {
	ch := make(chan reply, 1)
	go func() {
		resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ch <- reply{resp, raw, err}
	}()
	return ch
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// The tentpole invariant: concurrent same-class requests coalesce into one
// batch dispatch, and every coalesced result is bitwise-identical to a
// direct single-threaded SGEMM of the same problem.
func TestServeCoalescesBitwiseIdentical(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const n = 8
	probs := make([]*problem, n)
	for i := range probs {
		probs[i] = newProblem(t, direct, uint64(100+i), 24, 20, 16, 0)
	}
	e := newEnv(t, server.Config{
		MaxBatch:      n,
		MaxBatchFlops: 1e18,
	}, libshalom.WithThreads(4))
	// The requests queue behind a held flush of their class until the n-th
	// fills MaxBatch, so all n leave as one batch.
	release := e.srv.Hold(t, probs[0].h)
	defer release()

	type outcome struct {
		rh  server.ResponseHeader
		c   []float32
		err error
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := e.post(t, probs[i].body)
			if resp.StatusCode != http.StatusOK {
				outs[i].err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
				return
			}
			rh, c, _, err := server.DecodeResponse(bytes.NewReader(raw), probs[i].h.M, probs[i].h.N, false)
			outs[i] = outcome{rh: rh, c: c, err: err}
		}(i)
	}
	wg.Wait()

	maxBatch := 0
	for i, out := range outs {
		if out.err != nil {
			t.Fatalf("request %d: %v", i, out.err)
		}
		for j := range out.c {
			if math.Float32bits(out.c[j]) != math.Float32bits(probs[i].want[j]) {
				t.Fatalf("request %d: C[%d] = %v, want %v (not bitwise-identical to direct SGEMM)",
					i, j, out.c[j], probs[i].want[j])
			}
		}
		if out.rh.BatchSize > maxBatch {
			maxBatch = out.rh.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed: max batch size %d", maxBatch)
	}
	s := statsOf(e.lib)
	if s.Accepted != n || s.Coalesced == 0 || s.Flushes == 0 {
		t.Fatalf("server stats = %+v", s)
	}

	// The same stats must be visible on the Prometheus surface.
	resp, err := http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{
		"libshalom_server_requests_accepted_total 8",
		"libshalom_server_coalesced_requests_total",
		"libshalom_server_batch_size_bucket",
	} {
		if !strings.Contains(string(expo), metric) {
			t.Fatalf("/metrics missing %q", metric)
		}
	}
}

// The coalescing policy is work-conserving: a request to an idle class
// flushes on arrival, alone; requests that arrive while a flush of their
// class runs leave together as one batch when it ends; and a queue that
// fills MaxBatch flushes without waiting for the running flush.
func TestServeBatchesOnlyWhileBusy(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const maxBatch = 4
	e := newEnv(t, server.Config{MaxBatch: maxBatch, MaxBatchFlops: 1e18})
	idle := newProblem(t, direct, 30, 16, 16, 16, 0) // tiny class
	held := newProblem(t, direct, 31, 24, 24, 24, 0) // small class

	post := func(p *problem, n int) []<-chan reply {
		answers := make([]<-chan reply, n)
		for i := range answers {
			answers[i] = e.postAsync(p.body)
		}
		return answers
	}
	batchSizes := func(p *problem, answers []<-chan reply) []int {
		t.Helper()
		sizes := make([]int, len(answers))
		for i, answer := range answers {
			var r reply
			select {
			case r = <-answer:
			case <-time.After(5 * time.Second):
				t.Fatalf("request %d of %d unanswered", i, len(answers))
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.resp.StatusCode != http.StatusOK {
				t.Fatalf("HTTP %d: %s", r.resp.StatusCode, r.raw)
			}
			rh, c, _, err := server.DecodeResponse(bytes.NewReader(r.raw), p.h.M, p.h.N, false)
			if err != nil {
				t.Fatal(err)
			}
			for j := range c {
				if math.Float32bits(c[j]) != math.Float32bits(p.want[j]) {
					t.Fatalf("C[%d] = %v, want %v", j, c[j], p.want[j])
				}
			}
			sizes[i] = rh.BatchSize
		}
		return sizes
	}

	if got := batchSizes(idle, post(idle, 1)); got[0] != 1 {
		t.Fatalf("request to an idle class answered with batch_size %d, want 1", got[0])
	}

	release := e.srv.Hold(t, held.h)
	for _, size := range batchSizes(held, post(held, maxBatch)) {
		if size != maxBatch {
			t.Fatalf("held queue filled to MaxBatch flushed batch_size %d, want %d", size, maxBatch)
		}
	}

	const queued = maxBatch - 1
	answers := post(held, queued)
	waitFor(t, "requests queued", func() bool { return statsOf(e.lib).Accepted == 1+maxBatch+queued })
	if s := statsOf(e.lib); s.Flushes != 2 {
		t.Fatalf("flushes = %d with %d requests queued behind a held flush, want 2", s.Flushes, queued)
	}
	release()
	for _, size := range batchSizes(held, answers) {
		if size != queued {
			t.Fatalf("requests queued while busy left with batch_size %d, want %d", size, queued)
		}
	}
}

// The f64 path end to end, including a beta != 0 C upload.
func TestServeF64WithCUpload(t *testing.T) {
	rng := mat.NewRNG(42)
	m, n, k := 13, 9, 17
	a := mat.RandomF64(m, k, rng)
	b := mat.RandomF64(k, n, rng)
	c := mat.RandomF64(m, n, rng)
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	want := c.Clone()
	if err := direct.DGEMM(libshalom.NN, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, -0.5, want.Data, want.Stride); err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, server.Config{})
	h := server.Header{Precision: "f64", Mode: "NN", M: m, N: n, K: k, Alpha: 1.5, Beta: -0.5}
	var buf bytes.Buffer
	if err := server.EncodeRequest(&buf, h, nil, nil, nil, a.Data, b.Data, c.Data); err != nil {
		t.Fatal(err)
	}
	resp, raw := e.post(t, buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	_, _, got, err := server.DecodeResponse(bytes.NewReader(raw), m, n, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want.Data[i])
		}
	}
}

// A request whose deadline passes while it waits in the coalescing queue is
// answered 504 and never computed: no flush runs for it.
func TestServeDeadlineExpiresBeforeFlush(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	e := newEnv(t, server.Config{MaxBatch: 64})
	p := newProblem(t, direct, 7, 16, 16, 16, 1) // 1ms deadline
	// The request waits behind a held flush of its class until its deadline
	// has passed.
	release := e.srv.Hold(t, p.h)
	answer := e.postAsync(p.body)
	waitFor(t, "request admitted", func() bool { return statsOf(e.lib).Accepted == 1 })
	time.Sleep(2 * time.Millisecond)
	release()
	r := <-answer
	if r.err != nil {
		t.Fatal(r.err)
	}
	resp, raw := r.resp, r.raw
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d: %s, want 504", resp.StatusCode, raw)
	}
	s := statsOf(e.lib)
	if s.Expired != 1 {
		t.Fatalf("expired = %d, want 1", s.Expired)
	}
	if s.Flushes != 0 {
		t.Fatalf("flushes = %d: an expired request was computed", s.Flushes)
	}
}

// Admission control: a full class queue sheds with 429 + Retry-After, and a
// zero in-flight flops budget sheds everything.
func TestServeShedsWhenOverloaded(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	e := newEnv(t, server.Config{
		MaxBatch:         64,
		MaxQueue:         1,
		RetryAfter:       3,
		RetryAfterJitter: -1, // exact hint, so the header is assertable
	})
	p1 := newProblem(t, direct, 8, 16, 16, 16, 0)
	p2 := newProblem(t, direct, 9, 16, 16, 16, 0)
	// A held flush of the class: nothing flushes on its own.
	release := e.srv.Hold(t, p1.h)
	defer release()

	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p1.body))
		first <- resp
	}()
	waitFor(t, "first request admitted", func() bool { return statsOf(e.lib).Accepted == 1 })

	resp, raw := e.post(t, p2.body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d: %s, want 429", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if s := statsOf(e.lib); s.Shed != 1 {
		t.Fatalf("shed = %d, want 1", s.Shed)
	}

	// Drain answers the parked request — shedding never drops admitted work.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case r := <-first:
		if r.StatusCode != http.StatusOK {
			t.Fatalf("admitted request answered HTTP %d after drain", r.StatusCode)
		}
		r.Body.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("admitted request unanswered after drain")
	}
}

func TestServeShedsOnInFlightFlops(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	e := newEnv(t, server.Config{MaxInFlightFlops: 1})
	p := newProblem(t, direct, 10, 16, 16, 16, 0)
	resp, _ := e.post(t, p.body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429 under a zero flops budget", resp.StatusCode)
	}
}

// The full-class-queue 429 storm: with one queue slot, a burst of same-class
// requests is shed down to the admitted one, and every shed response carries
// a Retry-After hint inside the configured jitter band — the desynchronized
// backoff signal that prevents the storm from re-arriving as one wave.
func TestServe429StormEveryShedHasRetryAfter(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const base, jitter = 2, 3
	e := newEnv(t, server.Config{
		MaxQueue:         1,
		RetryAfter:       base,
		RetryAfterJitter: jitter,
	})
	p := newProblem(t, direct, 21, 16, 16, 16, 0)
	// A held flush of the class: nothing flushes until drain.
	release := e.srv.Hold(t, p.h)
	defer release()

	const storm = 24
	type verdict struct {
		code       int
		retryAfter string
	}
	verdicts := make(chan verdict, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p.body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			verdicts <- verdict{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	// The parked admitted requests answer at drain; the cleanup drain would
	// do it too, but doing it here bounds the storm goroutines' lifetime.
	waitFor(t, "storm settled", func() bool {
		s := statsOf(e.lib)
		return s.Accepted+s.Shed == storm
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(verdicts)
	shed := 0
	for v := range verdicts {
		if v.code != http.StatusTooManyRequests {
			continue
		}
		shed++
		sec, err := strconv.Atoi(v.retryAfter)
		if err != nil {
			t.Fatalf("shed response Retry-After = %q, want an integer", v.retryAfter)
		}
		if sec < base || sec > base+jitter {
			t.Fatalf("Retry-After = %d, want in [%d, %d]", sec, base, base+jitter)
		}
	}
	if shed == 0 {
		t.Fatal("storm shed nothing — queue bound not exercised")
	}
	if got := statsOf(e.lib).Shed; got != uint64(shed) {
		t.Fatalf("telemetry shed = %d, clients saw %d", got, shed)
	}
}

// Drain racing an in-flight coalescer flush: requests are still being
// admitted and flushed when the drain lands. Every admitted request must be
// answered correctly, every refusal must be an explicit 503 with a
// Retry-After hint, and readiness must read 503 from the moment the drain
// starts.
func TestServeDrainRacesCoalescerFlush(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	e := newEnv(t, server.Config{MaxBatch: 4})
	p := newProblem(t, direct, 22, 24, 24, 24, 0)

	const clients = 16
	type verdict struct {
		code       int
		retryAfter string
		body       []byte
	}
	verdicts := make(chan verdict, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p.body))
			if err != nil {
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			verdicts <- verdict{resp.StatusCode, resp.Header.Get("Retry-After"), raw}
		}()
	}
	// Land the drain while batches are still flushing.
	waitFor(t, "some requests admitted", func() bool { return statsOf(e.lib).Accepted >= 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain racing flush: %v", err)
	}
	// Readiness flipped with the drain; liveness did not.
	rr, err := http.Get(e.ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain start = %d, want 503", rr.StatusCode)
	}
	wg.Wait()
	close(verdicts)
	answered := uint64(0)
	for v := range verdicts {
		switch v.code {
		case http.StatusOK:
			answered++
			_, got, _, err := server.DecodeResponse(bytes.NewReader(v.body), p.h.M, p.h.N, false)
			if err != nil {
				t.Fatalf("decoding answered payload: %v", err)
			}
			for j := range got {
				if got[j] != p.want[j] {
					t.Fatalf("drained result differs at %d: %v != %v", j, got[j], p.want[j])
				}
			}
		case http.StatusServiceUnavailable:
			if v.retryAfter == "" {
				t.Fatal("drain refusal missing Retry-After")
			}
		default:
			t.Fatalf("unexpected verdict %d during drain race", v.code)
		}
	}
	if acc := statsOf(e.lib).Accepted; answered != acc {
		t.Fatalf("%d requests admitted but %d answered 200 — drain dropped admitted work", acc, answered)
	}
}

// Readiness is a distinct signal from liveness: /readyz goes 503 the moment
// a drain starts while /healthz keeps answering 200 for a healthy runtime.
func TestServeReadyzSplitsFromHealthz(t *testing.T) {
	e := newEnv(t, server.Config{})
	get := func(path string) int {
		resp, err := http.Get(e.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200 — drain must not fail liveness", code)
	}
}

// Drain answers every admitted request, then the server refuses new work
// with 503.
func TestServeDrainCompletesAdmitted(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const n = 12
	e := newEnv(t, server.Config{
		MaxBatch:      1024,
		MaxBatchFlops: 1e18,
	}, libshalom.WithThreads(2))
	probs := make([]*problem, n)
	for i := range probs {
		// Two shape classes (8³ is tiny, 24³ and 72³ are small), so the
		// drain sweeps several queues.
		dim := []int{8, 24, 72}[i%3]
		probs[i] = newProblem(t, direct, uint64(200+i), dim, dim, dim, 0)
	}
	// A held flush of each class: nothing flushes until the drain.
	for _, p := range probs[:2] {
		release := e.srv.Hold(t, p.h)
		defer release()
	}
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := e.post(t, probs[i].body)
			statuses[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, "all requests admitted", func() bool { return statsOf(e.lib).Accepted == n })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("admitted request %d answered HTTP %d during drain, want 200", i, st)
		}
	}
	s := statsOf(e.lib)
	if s.Expired != 0 || s.Accepted != n {
		t.Fatalf("drain dropped admitted work: %+v", s)
	}

	resp, _ := e.post(t, probs[0].body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain HTTP %d, want 503", resp.StatusCode)
	}
}

// /healthz follows the breaker: 200 while healthy, 503 with the breaker
// record while the serving platform's kernel path is open.
func TestServeHealthzFollowsBreaker(t *testing.T) {
	defer libshalom.ResetDegradations()
	e := newEnv(t, server.Config{})

	get := func() (int, map[string]any) {
		resp, err := http.Get(e.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	code, body := get()
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy healthz = %d %v", code, body)
	}

	guard.Trip(e.lib.Platform().Name, guard.PathF32, guard.ReasonPanic, "injected for test", "NN 8x8x8", 0)
	code, body = get()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("tripped healthz = %d %v", code, body)
	}
	if body["breakers"] == nil {
		t.Fatalf("tripped healthz carries no breaker records: %v", body)
	}

	libshalom.ResetDegradations()
	code, body = get()
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("reset healthz = %d %v", code, body)
	}
}

// Malformed requests are 400 (and counted), wrong methods 405.
func TestServeRejectsMalformed(t *testing.T) {
	e := newEnv(t, server.Config{})
	resp, raw := e.post(t, []byte("{not json}\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d: %s, want 400", resp.StatusCode, raw)
	}
	if s := statsOf(e.lib); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
	get, err := http.Get(e.ts.URL + "/v1/gemm")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/gemm = HTTP %d, want 405", get.StatusCode)
	}
}

// The serving stats ride the ordinary snapshot, so a nil-telemetry Context
// simply reports zeros and the endpoints stay absent.
func TestServeWithoutTelemetry(t *testing.T) {
	lib := libshalom.New()
	defer lib.Close()
	srv := server.New(lib, server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	p := newProblem(t, direct, 11, 8, 8, 8, 0)
	resp, err := http.Post(ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p.body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200 without telemetry", resp.StatusCode)
	}
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m.Body.Close()
	if m.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics without telemetry = HTTP %d, want 404", m.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
