package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/journal"
	"libshalom/internal/server"
)

// journaledEnv is a serving stack with the tamper-evident journal attached:
// the env plus its writer and directory, torn down in dependency order
// (drain first, then the writer's sealing close).
type journaledEnv struct {
	dir string
	jw  *journal.Writer
	lib *libshalom.Context
	srv *server.Server
	ts  *httptest.Server
}

func newJournaledEnv(t *testing.T, cfg server.Config) *journaledEnv {
	t.Helper()
	dir := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: dir, CapturePayloads: true})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	guard.SetTransitionObserver(jw.GuardObserver())
	cfg.Journal = jw
	e := &journaledEnv{dir: dir, jw: jw, lib: libshalom.New(libshalom.WithTelemetry(), libshalom.WithNumericGuard())}
	e.srv = server.New(e.lib, cfg)
	e.ts = httptest.NewServer(e.srv)
	return e
}

// shutdown drains, closes the stack, and seals the journal; safe to call
// once per env.
func (e *journaledEnv) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	e.ts.Close()
	e.lib.Close()
	guard.SetTransitionObserver(nil)
	if err := e.jw.Close(); err != nil {
		t.Errorf("journal close: %v", err)
	}
}

// postOK posts one body and returns the decoded m×n f32 result.
func (e *journaledEnv) postOK(t *testing.T, p *problem) []float32 {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/v1/gemm", "application/octet-stream", bytes.NewReader(p.body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	_, c32, _, err := server.DecodeResponse(resp.Body, p.h.M, p.h.N, false)
	if err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return c32
}

// TestJournalCaptureAndVerify drives the full capture path: requests flow
// through a journaling server, /healthz exposes durability and provenance,
// and after a graceful shutdown the journal verifies and holds an admit,
// a result (with the response's exact hash) and a flush per request.
func TestJournalCaptureAndVerify(t *testing.T) {
	resetChaosState()
	defer resetChaosState()
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()

	e := newJournaledEnv(t, server.Config{})
	const n = 5
	var wants [][]float32
	for i := 0; i < n; i++ {
		p := newProblem(t, direct, uint64(100+i), 8+i, 8, 8, 0)
		got := e.postOK(t, p)
		wants = append(wants, got)
	}

	// /healthz carries the provenance satellite: config hash + journal
	// durability while the server is live.
	resp, err := http.Get(e.ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var hz struct {
		ConfigHash string          `json:"config_hash"`
		Journal    *journal.Status `json:"journal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	resp.Body.Close()
	if hz.ConfigHash == "" {
		t.Error("/healthz has no config_hash")
	}
	if hz.Journal == nil {
		t.Fatal("/healthz has no journal section while journaling")
	}
	if hz.Journal.Dir != e.dir || hz.Journal.ChainHead == "" || hz.Journal.Fsync != "anchor" {
		t.Errorf("/healthz journal section %+v", hz.Journal)
	}

	e.shutdown(t)

	rep, err := journal.VerifyDir(e.dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if !rep.OK {
		t.Fatalf("captured journal fails verification: %v", rep.Errs)
	}
	events, err := journal.ReadDir(e.dir)
	if err != nil {
		t.Fatal(err)
	}
	var admits, results, flushes int
	resultBySeq := map[uint64]journal.Event{}
	var admitSeqs []uint64
	for _, ev := range events {
		switch ev.Kind {
		case journal.KindAdmit:
			admits++
			admitSeqs = append(admitSeqs, ev.Seq)
			if !ev.HasPayload {
				t.Error("admit captured without payload despite CapturePayloads")
			}
		case journal.KindResult:
			results++
			resultBySeq[ev.AdmitSeq] = ev
		case journal.KindFlush:
			flushes++
		}
	}
	if admits != n || results != n || flushes == 0 {
		t.Fatalf("journal holds %d admits, %d results, %d flushes; want %d of each plus flushes", admits, results, flushes, n)
	}
	// Sequential posts journal admits in order; each result hash must equal
	// the hash of the bytes the client actually received.
	for i, seq := range admitSeqs {
		rv, ok := resultBySeq[seq]
		if !ok {
			t.Fatalf("admit seq %d has no result event", seq)
		}
		if rv.Status != http.StatusOK {
			t.Errorf("result for admit %d is %d, want 200", seq, rv.Status)
		}
		if rv.ResultHash != journal.HashF32s(wants[i]) {
			t.Errorf("journaled result hash for admit %d does not match the response payload", seq)
		}
	}
}

// TestJournalReplayDeterminism is the acceptance gate for replay: capture a
// run that trips a breaker via an injected fault, then re-issue the
// journaled traffic against a fresh server under the same fault schedule —
// every completed request must reproduce bitwise-identical results, and the
// replay's journal must record the same degradation sequence.
func TestJournalReplayDeterminism(t *testing.T) {
	resetChaosState()
	defer resetChaosState()

	type breakerEvent struct{ platform, kernel, reason, from, to string }
	breakerSeq := func(dir string) []breakerEvent {
		events, err := journal.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []breakerEvent
		for _, ev := range events {
			if ev.Kind == journal.KindBreaker {
				out = append(out, breakerEvent{ev.Platform, ev.Kernel, ev.Reason, ev.From, ev.To})
			}
		}
		return out
	}

	// Capture run: the first flush's fast path is poisoned with a NaN, so
	// the numeric guard trips the f32 breaker and the run degrades to the
	// reference path — the kind of episode replay exists to reproduce.
	capture := newJournaledEnv(t, server.Config{})
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	faults.Arm(faults.SpuriousNaN, 1)
	const n = 4
	for i := 0; i < n; i++ {
		p := newProblem(t, direct, uint64(200+i), 12, 12, 12, 0)
		capture.postOK(t, p)
	}
	capture.shutdown(t)
	capBreakers := breakerSeq(capture.dir)
	if len(capBreakers) == 0 {
		t.Fatal("capture run recorded no breaker transition despite the injected fault")
	}

	// Replay run: fresh guard state, fresh server, identical fault schedule.
	resetChaosState()
	rep := newJournaledEnv(t, server.Config{})
	faults.Arm(faults.SpuriousNaN, 1)
	events, err := journal.ReadDir(capture.dir)
	if err != nil {
		t.Fatal(err)
	}
	resultBySeq := map[uint64]journal.Event{}
	for _, ev := range events {
		if ev.Kind == journal.KindResult {
			resultBySeq[ev.AdmitSeq] = ev
		}
	}
	replayed := 0
	for _, ev := range events {
		if ev.Kind != journal.KindAdmit {
			continue
		}
		rv, ok := resultBySeq[ev.Seq]
		if !ok || rv.Status != http.StatusOK {
			continue
		}
		var h server.Header
		if err := json.Unmarshal(ev.Header, &h); err != nil {
			t.Fatalf("admit %d: malformed journaled header: %v", ev.Seq, err)
		}
		body := append(append(append([]byte{}, ev.Header...), '\n'), ev.Payload...)
		got := rep.postOK(t, &problem{h: h, body: body})
		if journal.HashF32s(got) != rv.ResultHash {
			t.Errorf("replay of admit %d is not bitwise identical to the journaled result", ev.Seq)
		}
		replayed++
	}
	if replayed != n {
		t.Fatalf("replayed %d requests, want %d", replayed, n)
	}
	rep.shutdown(t)

	repBreakers := breakerSeq(rep.dir)
	if len(repBreakers) != len(capBreakers) {
		t.Fatalf("degradation sequences diverge: capture %v, replay %v", capBreakers, repBreakers)
	}
	for i := range capBreakers {
		if capBreakers[i] != repBreakers[i] {
			t.Fatalf("degradation event %d diverges: capture %+v, replay %+v", i, capBreakers[i], repBreakers[i])
		}
	}
}
