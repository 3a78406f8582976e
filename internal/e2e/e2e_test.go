package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"libshalom/internal/attrib"
	"libshalom/internal/autotune"
	"libshalom/internal/telemetry"
)

// A race-enabled server answers a coalescing storm in full, at least one
// flush carries more than one request, and a SIGTERM drain drops nothing.
func TestServe(t *testing.T) {
	dir := workDir(t)
	srv, addr := serve(t, dir, "serve", binary(t, "shalom-serve", true), "127.0.0.1:0")

	answered(t, "storm", load(t, dir, addr, "-n", "64", "-c", "16", "-mix", "tiny"))
	if n := scrape(t, addr)["libshalom_server_coalesced_requests_total"]; n == 0 {
		t.Errorf("no coalescing observed: libshalom_server_coalesced_requests_total = %g", n)
	}
	srv.drain(t, "drained", "expired 0,")
}

// Three backends behind a race-enabled router: a SIGKILL of one backend
// mid-storm loses nothing, the corpse is ejected and, restarted on its old
// port, readmitted, and the router drains cleanly.
func TestRouter(t *testing.T) {
	dir := workDir(t)
	serveBin := binary(t, "shalom-serve", false)
	backends := make([]*proc, 3)
	addrs := make([]string, 3)
	for i := range backends {
		backends[i], addrs[i] = serve(t, dir, fmt.Sprintf("serve%d", i+1), serveBin, "127.0.0.1:0")
	}
	router, raddr := serve(t, dir, "router", binary(t, "shalom-router", true), "127.0.0.1:0",
		"-backends", strings.Join(addrs, ","), "-probe-interval", "100ms", "-probe-timeout", "500ms",
		"-eject-threshold", "3", "-readmit-base", "200ms", "-retry-budget", "2")
	storm := []string{"-router", "-n", "96", "-c", "12", "-mix", "tiny"}

	answered(t, "baseline storm", load(t, dir, raddr, storm...))

	wait := startLoad(t, dir, raddr, "-router", "-n", "600", "-c", "16", "-mix", "tiny")
	time.Sleep(300 * time.Millisecond)
	backends[0].kill(t)
	answered(t, "storm with a backend killed", wait())

	// When another backend owns the storm's class, no request hits the
	// corpse and only the prober ejects it, which can land after the
	// storm ends.
	counter := func(name string, bound time.Duration) {
		t.Helper()
		var n float64
		if !poll(bound, func() bool { n = scrape(t, raddr)[name]; return n >= 1 }) {
			t.Fatalf("%s = %g after %v:\n%s", name, n, bound, router.output())
		}
	}
	counter("libshalom_router_ejections_total", 3*time.Second)
	backends[0], _ = serve(t, dir, "serve1", serveBin, addrs[0])
	counter("libshalom_router_readmissions_total", 10*time.Second)

	answered(t, "storm after recovery", load(t, dir, raddr, storm...))
	router.drain(t, "drained")
}

// The forensic loop: a journaled capture seals on drain and verifies, one
// flipped byte fails verification, and a replay against a fresh server
// reproduces every captured request bitwise.
func TestJournal(t *testing.T) {
	dir := workDir(t)
	serveBin := binary(t, "shalom-serve", true)
	journalBin := binary(t, "shalom-journal", false)
	capture, replay := filepath.Join(dir, "capture"), filepath.Join(dir, "replay")
	journaled := func(jdir string) (*proc, string) {
		return serve(t, dir, "serve-"+filepath.Base(jdir), serveBin, "127.0.0.1:0", "-journal", jdir, "-journal-payloads")
	}
	verify := func(jdir string) (string, int) { return run(t, journalBin, "verify", jdir) }

	srv, addr := journaled(capture)
	captured := load(t, dir, addr, "-n", "48", "-c", "8", "-mix", "tiny")
	answered(t, "capture storm", captured)
	if captured.ConfigHash == "" || captured.JournalChainHead == "" {
		t.Errorf("capture report lacks provenance: config_hash %q, journal_chain_head %q",
			captured.ConfigHash, captured.JournalChainHead)
	}
	srv.drain(t, "journal sealed")
	if out, code := verify(capture); code != 0 {
		t.Fatalf("verify of the sealed capture exited %d:\n%s", code, out)
	}
	if out, code := run(t, journalBin, "ls", capture); code != 0 {
		t.Fatalf("ls of the sealed capture exited %d:\n%s", code, out)
	}

	tampered := filepath.Join(dir, "tampered")
	seg := flipByte(t, capture, tampered)
	if out, code := verify(tampered); code != 1 {
		t.Fatalf("verify of a flipped byte in %s exited %d, want 1:\n%s", seg, code, out)
	}

	srv, addr = journaled(replay)
	r := load(t, dir, addr, "-replay", capture, "-replay-speed", "0")
	srv.drain(t, "journal sealed")
	if r.Requests != 48 || r.Matched != 48 || r.Skipped != 0 || r.Mismatched != 0 {
		t.Errorf("replay of 48 captured requests: %d replayed, %d matched bitwise, %d skipped, %d mismatched",
			r.Requests, r.Matched, r.Skipped, r.Mismatched)
	}
	if r.ReplayChainHead == "" {
		t.Error("replay report lacks replay_chain_head")
	}
	if out, code := verify(replay); code != 0 {
		t.Fatalf("verify of the replay journal exited %d:\n%s", code, out)
	}
}

// flipByte copies the journal in src to dst and flips one bit mid-way
// through dst's first segment, keeping its size; it returns the segment.
func flipByte(t *testing.T, src, dst string) string {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dst, "seg-*.shj"))
	if len(segs) == 0 {
		t.Fatalf("no segment in %s", src)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 64
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	return segs[0]
}

// A server with the small class seeded 5 ms slow surfaces the regression
// everywhere attribution reports: a drift event and the top tuning
// candidate in /attrib, the /metrics families, shalom-top's heat view, and
// the drain log.
func TestAttrib(t *testing.T) {
	dir := workDir(t)
	srv, addr := serve(t, dir, "serve", binary(t, "shalom-serve", true), "127.0.0.1:0",
		"-attrib-window", "150ms", "-attrib-windows", "2", "-attrib-min-calls", "4",
		"-chaos-slow-class", "small", "-chaos-slow-delay", "5ms")
	// The portable kernels can leave the small class below par without the
	// seed, so drift alone does not prove the seed took effect.
	srv.logged(t, "CHAOS slow-shape-class armed: small")

	// Storm until the detector latches on the seeded class (K=2
	// consecutive below-par windows), bounded so a broken detector fails
	// rather than hangs.
	var rep attrib.Report
	smallDrifted := func() bool {
		for _, c := range rep.Candidates {
			if c.ShapeClass == "small" && c.DriftEvents > 0 {
				return true
			}
		}
		return false
	}
	round := 0
	for round < 10 && !smallDrifted() {
		round++
		load(t, dir, addr, "-n", "400", "-c", "16", "-mix", "mixed")
		time.Sleep(400 * time.Millisecond) // let windows close over the storm's tail
		getJSON(t, addr, "/attrib", &rep)
	}
	if !smallDrifted() {
		t.Fatalf("no drift event on the small class after %d storms: %+v", round, rep)
	}
	t.Logf("small class drifted after %d storm(s)", round)
	if rep.DriftTotal == 0 || rep.Candidates[0].ShapeClass != "small" {
		t.Errorf("/attrib: %d drift events, top candidate %q, want the seeded small class",
			rep.DriftTotal, rep.Candidates[0].ShapeClass)
	}

	m := scrape(t, addr)
	if n := m[`libshalom_attrib_drift_events_total{shape_class="small"}`]; n < 1 {
		t.Errorf("/metrics: small-class drift counter = %g", n)
	}
	m.want(t, "libshalom_attrib_rel_efficiency{", "libshalom_attrib_candidate_score{",
		"libshalom_attrib_calls_total{", "libshalom_go_goroutines", "libshalom_go_heap_objects_bytes")

	out, code := run(t, binary(t, "shalom-top", false), "-attrib", "http://"+addr)
	if code != 0 || !strings.Contains(out, "DRIFT") || !strings.Contains(out, "small") {
		t.Errorf("shalom-top -attrib exited %d without a small class marked DRIFT:\n%s", code, out)
	}
	srv.drain(t, "DRIFT", "attribution —")
}

// A server with a detuned f32/small tile and -autotune runs search ->
// prove -> canary -> promote under traffic; the promotion shows in /tune
// with a modeled gain clearing the engine's margin, in /metrics, in
// shalom-top's tune view, in the drain log, and as a verifiable journal
// record. The measured small-mix throughput before and after is logged,
// not gated: on a race-built server on a shared host it is host noise.
func TestTune(t *testing.T) {
	dir := workDir(t)
	jdir := filepath.Join(dir, "journal")
	srv, addr := serve(t, dir, "serve", binary(t, "shalom-serve", true), "127.0.0.1:0",
		"-attrib-window", "150ms", "-attrib-windows", "2", "-attrib-min-calls", "4",
		"-autotune", "-autotune-interval", "250ms", "-autotune-min-score", "0.001",
		"-detune-class", "small", "-journal", jdir)
	srv.logged(t, "DETUNE seeded f32/small")
	before := load(t, dir, addr, "-n", "300", "-c", "8", "-mix", "small")

	// Storm until the closed loop promotes f32/small, bounded so a stuck
	// loop fails rather than hangs. The mixed traffic keeps the
	// calibration anchored while the small-class calls feed both the
	// attribution score and the canary.
	var rep autotune.Report
	var row autotune.ClassReport
	round := 0
	for round < 15 && row.State != "promoted" {
		round++
		load(t, dir, addr, "-n", "400", "-c", "16", "-mix", "mixed")
		time.Sleep(500 * time.Millisecond) // let windows close and the loop tick
		getJSON(t, addr, "/tune", &rep)
		for _, c := range rep.Classes {
			if c.Precision == "f32" && c.ShapeClass == "small" {
				row = c
			}
		}
	}
	if row.State != "promoted" {
		t.Fatalf("f32/small not promoted after %d storms: %+v", round, rep)
	}
	t.Logf("f32/small promoted after %d storm(s)", round)
	if !strings.HasPrefix(row.Kernel, "tuned-") || row.IncumbentKernel != "detuned-1x4" {
		t.Errorf("/tune f32/small: kernel %q over incumbent %q, want tuned-* over detuned-1x4", row.Kernel, row.IncumbentKernel)
	}
	if row.IncumbentGFLOPS <= 0 || row.CandidateGFLOPS < (1+rep.Margin)*row.IncumbentGFLOPS {
		t.Errorf("/tune f32/small: candidate %.2f GFLOPS does not clear (1 + %.2f) x incumbent %.2f",
			row.CandidateGFLOPS, rep.Margin, row.IncumbentGFLOPS)
	}

	m := scrape(t, addr)
	for _, s := range []string{
		`libshalom_autotune_events_total{event="promoted"}`,
		`libshalom_autotune_events_total{event="proved"}`,
		`libshalom_autotune_events_total{event="canary"}`,
		`libshalom_autotune_class_state{precision="f32",shape_class="small",state="promoted"}`,
		`libshalom_autotune_overrides`,
	} {
		if m[s] < 1 {
			t.Errorf("/metrics: %s = %g, want >= 1", s, m[s])
		}
	}
	m.want(t, `libshalom_autotune_class_candidate_gflops{precision="f32",shape_class="small",kernel="tuned-`)

	out, code := run(t, binary(t, "shalom-top", false), "-tune", "http://"+addr)
	shown := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line) // prec class state kernel ...
		shown = shown || len(f) > 3 && f[0] == "f32" && f[1] == "small" && f[2] == "promoted" && strings.HasPrefix(f[3], "tuned-")
	}
	if code != 0 || !shown {
		t.Errorf("shalom-top -tune exited %d without the promoted f32/small row:\n%s", code, out)
	}

	after := load(t, dir, addr, "-n", "300", "-c", "8", "-mix", "small")
	t.Logf("measured small-mix throughput %.3f -> %.3f GFLOPS (race-built server, not gated)", before.GFLOPS, after.GFLOPS)

	log := srv.drain(t)
	var searched, proved, rejected, canaried, promoted, reverted int
	i := strings.Index(log, "shalom-serve: autotune — ")
	if i < 0 {
		t.Fatalf("server log has no autotune summary:\n%s", srv.output())
	}
	if _, err := fmt.Sscanf(log[i:], "shalom-serve: autotune — searched %d, proved %d, rejected %d, canaried %d, promoted %d, reverted %d",
		&searched, &proved, &rejected, &canaried, &promoted, &reverted); err != nil || promoted == 0 {
		t.Errorf("autotune summary reports %d promotions (%v):\n%s", promoted, err, log[i:])
	}

	journalBin := binary(t, "shalom-journal", false)
	if out, code := run(t, journalBin, "verify", jdir); code != 0 {
		t.Fatalf("journal verify exited %d:\n%s", code, out)
	}
	out, code = run(t, journalBin, "dump", jdir, "-kind", "tune-promote", "-json")
	var promotes int
	for _, line := range strings.Split(out, "\n") {
		var ev struct{ Kind string }
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Kind == "tune-promote" {
			promotes++
		}
	}
	if code != 0 || promotes == 0 {
		t.Errorf("journal dump exited %d with %d tune-promote records:\n%s", code, promotes, out)
	}
}

// shalom-top drives a small mix on a telemetry-enabled context and exports
// a Chrome trace that validates: well-formed JSON, per-lane monotonic
// timestamps, balanced name-matched B/E pairs.
func TestTrace(t *testing.T) {
	dir := workDir(t)
	path := filepath.Join(dir, "trace.json")
	out, code := run(t, binary(t, "shalom-top", false), "-once", "-duration", "200ms", "-mix", "small", "-trace", path)
	if code != 0 {
		t.Fatalf("shalom-top exited %d:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.ValidateTrace(f); err != nil {
		t.Fatal(err)
	}
}
