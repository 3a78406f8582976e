package server_test

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/faults"
	"libshalom/internal/server"
)

func resetChaosState() {
	faults.Reset()
	libshalom.ResetDegradations()
}

// coalescedWave fires n concurrent same-class requests and returns their
// statuses plus the first non-200 body seen.
func coalescedWave(t *testing.T, e *env, probs []*problem) ([]int, string) {
	t.Helper()
	statuses := make([]int, len(probs))
	bodies := make([]string, len(probs))
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := e.post(t, probs[i].body)
			statuses[i] = resp.StatusCode
			bodies[i] = string(raw)
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			return statuses, bodies[i]
		}
	}
	return statuses, ""
}

// A kernel panic mid-flush on a no-retry Context fails exactly that batch:
// its requests see 500 carrying the panic error, the server and its pool
// survive, the next wave is answered normally, and the injected fault is
// counted once. With the transient retry disabled a raw panic must not trip
// the breaker (that is the single-call contract, preserved through the
// batch path).
func TestServeKernelPanicFailsOnlyThatBatch(t *testing.T) {
	resetChaosState()
	defer resetChaosState()

	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const n = 4
	probs := make([]*problem, n)
	for i := range probs {
		probs[i] = newProblem(t, direct, uint64(300+i), 24, 24, 24, 0)
	}
	e := newEnv(t, server.Config{
		Window:        400 * time.Millisecond,
		MaxBatch:      n,
		MaxBatchFlops: 1e18,
	}, libshalom.WithThreads(1), libshalom.WithoutTransientRetry())

	faults.Arm(faults.PanicInKernel, 1)
	statuses, body := coalescedWave(t, e, probs)
	for i, st := range statuses {
		if st != http.StatusInternalServerError {
			t.Fatalf("request %d of the panicking batch = HTTP %d, want 500 (statuses %v)", i, st, statuses)
		}
	}
	if !strings.Contains(body, "panic") {
		t.Fatalf("500 body does not carry the kernel panic: %q", body)
	}
	if got := len(libshalom.Degradations()); got != 0 {
		t.Fatalf("raw panic tripped %d breakers with retry disabled", got)
	}
	snap := e.lib.Snapshot()
	var injected uint64
	for _, f := range snap.Faults {
		if f.Name == "panic-in-kernel" {
			injected = f.Count
		}
	}
	if injected != 1 {
		t.Fatalf("fault injections = %d, want exactly 1", injected)
	}

	// Only that batch: the next wave (fault disarmed) is served normally by
	// the same process and pool.
	faults.Reset()
	next := make([]*problem, n)
	for i := range next {
		next[i] = newProblem(t, direct, uint64(400+i), 24, 24, 24, 0)
	}
	statuses, body = coalescedWave(t, e, next)
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("post-panic request %d = HTTP %d (%s), want 200", i, st, body)
		}
	}
	if s := statsOf(e.lib); s.Accepted != 2*n {
		t.Fatalf("accepted = %d, want %d", s.Accepted, 2*n)
	}
}

// With the default transient retry, the same panic heals instead: every
// request of the batch still answers 200, the breaker opens exactly once,
// and /healthz flips to 503 — the degradation is observable, not fatal.
func TestServeKernelPanicHealsUnderDefaultRetry(t *testing.T) {
	resetChaosState()
	defer resetChaosState()

	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	const n = 4
	probs := make([]*problem, n)
	for i := range probs {
		probs[i] = newProblem(t, direct, uint64(500+i), 24, 24, 24, 0)
	}
	e := newEnv(t, server.Config{
		Window:        400 * time.Millisecond,
		MaxBatch:      n,
		MaxBatchFlops: 1e18,
	}, libshalom.WithThreads(1))

	faults.Arm(faults.PanicInKernel, 1)
	statuses, body := coalescedWave(t, e, probs)
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d = HTTP %d (%s), want 200 under transient retry", i, st, body)
		}
	}
	snap := e.lib.Snapshot()
	if snap.HealCount("breaker-open") != 1 {
		t.Fatalf("breaker-open events = %d, want exactly 1 (heal = %+v)", snap.HealCount("breaker-open"), snap.Heal)
	}
	if snap.HealCount("transient-retry") != 1 {
		t.Fatalf("transient-retry events = %d, want exactly 1", snap.HealCount("transient-retry"))
	}
	degr := libshalom.Degradations()
	if len(degr) != 1 || degr[0].State != libshalom.BreakerOpen {
		t.Fatalf("degradations = %+v, want one open breaker", degr)
	}

	resp, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after trip = HTTP %d, want 503", resp.StatusCode)
	}
}

// A request racing the drain is either admitted (and then answered) or
// refused with 503 — never lost. Run a small storm against a draining
// server and account for every response.
func TestServeDrainUnderConcurrentLoad(t *testing.T) {
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	e := newEnv(t, server.Config{
		Window:   2 * time.Millisecond,
		MaxBatch: 8,
	}, libshalom.WithThreads(2))
	p := newProblem(t, direct, 600, 16, 16, 16, 0)

	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	stop := make(chan struct{})
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p.body))
				if err != nil {
					mu.Lock()
					counts[-1]++
					mu.Unlock()
					continue
				}
				resp.Body.Close()
				mu.Lock()
				counts[resp.StatusCode]++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(dctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	close(stop)
	wg.Wait()

	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusServiceUnavailable, http.StatusTooManyRequests:
		default:
			t.Fatalf("unexpected outcome HTTP %d under drain: %v", code, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Fatalf("no request completed before the drain: %v", counts)
	}
	s := statsOf(e.lib)
	if s.Expired != 0 {
		t.Fatalf("drain dropped %d admitted requests", s.Expired)
	}
	t.Logf("drain storm outcomes: %v (accepted %d, shed %d)", counts, s.Accepted, s.Shed)
}
