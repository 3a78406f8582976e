// Package e2e drives the real command binaries end to end: it builds
// shalom-serve, shalom-router, shalom-load, shalom-journal and shalom-top,
// boots them on ephemeral ports, storms them, and checks what every
// process reports — exit codes, drain logs, the /metrics exposition, and
// the JSON of /attrib, /tune and the shalom-load reports. The tests are
// gated behind SHALOM_E2E=1; run them via `make e2e`.
package e2e

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const (
	bootBound  = 10 * time.Second // a server writes its -addr-file
	drainBound = 30 * time.Second // a SIGTERM drain exits
	runBound   = 2 * time.Minute  // a storm or a CLI call completes
)

// workDir skips the test unless the harness is enabled and returns a
// scratch directory for logs, address files, reports and journals.
func workDir(t *testing.T) string {
	t.Helper()
	if os.Getenv("SHALOM_E2E") == "" {
		t.Skip("end-to-end harness disabled; run via `make e2e` (SHALOM_E2E=1)")
	}
	return t.TempDir()
}

var (
	binMu  sync.Mutex
	binDir string
	built  = map[string]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary builds ./cmd/<name> once per run, race-enabled when race is set,
// and returns the executable's path.
func binary(t *testing.T, name string, race bool) string {
	t.Helper()
	binMu.Lock()
	defer binMu.Unlock()
	key := name
	if race {
		key += "-race"
	}
	if path, ok := built[key]; ok {
		return path
	}
	if binDir == "" {
		dir, err := os.MkdirTemp("", "shalom-e2e-bin-")
		if err != nil {
			t.Fatal(err)
		}
		binDir = dir
	}
	path := filepath.Join(binDir, key)
	args := []string{"build", "-o", path}
	if race {
		args = append(args, "-race")
	}
	// go test puts its own GOROOT/bin first on PATH, so this is the
	// toolchain running the tests.
	if out, err := exec.Command("go", append(args, "libshalom/cmd/"+name)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", key, err, out)
	}
	built[key] = path
	return path
}

// proc is one child process whose stdout and stderr append to a log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been reaped
}

// start launches bin and registers a cleanup that kills and reaps it.
func start(t *testing.T, log, bin string, args ...string) *proc {
	t.Helper()
	f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{name: strings.TrimSuffix(filepath.Base(log), ".log"), cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read off cmd.ProcessState
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // fails only once the process has exited
		<-p.done
	})
	return p
}

// output returns the tail of the process's log, for failure messages.
func (p *proc) output() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 8<<10 {
		b = b[len(b)-8<<10:]
	}
	return string(b)
}

// exit waits up to bound for the process to exit and returns its code.
func (p *proc) exit(t *testing.T, bound time.Duration) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(bound):
		t.Fatalf("%s still running after %v:\n%s", p.name, bound, p.output())
		return -1
	}
}

// drain sends SIGTERM, requires a zero exit, and checks the log as
// logged does.
func (p *proc) drain(t *testing.T, want ...string) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: SIGTERM: %v", p.name, err)
	}
	if code := p.exit(t, drainBound); code != 0 {
		t.Fatalf("%s exited %d after SIGTERM:\n%s", p.name, code, p.output())
	}
	return p.logged(t, want...)
}

// logged requires the process's log to hold every one of want and
// returns the whole log.
func (p *proc) logged(t *testing.T, want ...string) string {
	t.Helper()
	b, err := os.ReadFile(p.log)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(string(b), w) {
			t.Fatalf("%s log has no %q:\n%s", p.name, w, p.output())
		}
	}
	return string(b)
}

// kill sends SIGKILL and waits for the process to be reaped, so its port
// is free to rebind.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("%s: SIGKILL: %v", p.name, err)
	}
	p.exit(t, drainBound)
}

// serve starts a shalom-serve or shalom-router binary listening on listen
// (127.0.0.1:0 for an ephemeral port, or an old address to rebind), waits
// for its -addr-file, and returns the process and its bound address.
func serve(t *testing.T, dir, name, bin, listen string, args ...string) (*proc, string) {
	t.Helper()
	addrFile := filepath.Join(dir, name+".addr")
	os.Remove(addrFile) // a restart must not read the previous run's address
	p := start(t, filepath.Join(dir, name+".log"), bin,
		append([]string{"-addr", listen, "-addr-file", addrFile}, args...)...)
	var addr string
	poll(bootBound, func() bool {
		select {
		case <-p.done:
			return true // exited before binding
		default:
		}
		b, _ := os.ReadFile(addrFile)
		addr = string(b)
		return addr != ""
	})
	if addr == "" {
		t.Fatalf("%s bound no address within %v:\n%s", name, bootBound, p.output())
	}
	return p, addr
}

// poll calls ok every 100 ms until it returns true or bound has passed,
// and reports whether it did.
func poll(bound time.Duration, ok func() bool) bool {
	deadline := time.Now().Add(bound)
	for {
		if ok() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// run runs bin to completion and returns its combined output and exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), runBound)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("%s: %v", filepath.Base(bin), err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// loadReport is the part of a shalom-load -json report the tests read, in
// both load and -replay mode.
type loadReport struct {
	Requests         int     `json:"requests"`
	OK               int     `json:"ok"`
	Shed             int     `json:"shed"`
	Errors           int     `json:"errors"`
	GFLOPS           float64 `json:"gflops"`
	ConfigHash       string  `json:"config_hash"`
	JournalChainHead string  `json:"journal_chain_head"`

	ReplayChainHead string `json:"replay_chain_head"`
	Matched         int    `json:"matched"`
	Mismatched      int    `json:"mismatched"`
	Skipped         int    `json:"skipped"`
}

// startLoad starts shalom-load against addr; the returned function waits
// for it, requires a zero exit, and returns the decoded -json report.
func startLoad(t *testing.T, dir, addr string, args ...string) func() loadReport {
	t.Helper()
	f, err := os.CreateTemp(dir, "load-*.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	p := start(t, filepath.Join(dir, "load.log"), binary(t, "shalom-load", false),
		append([]string{"-addr", addr, "-json", f.Name()}, args...)...)
	return func() loadReport {
		t.Helper()
		if code := p.exit(t, runBound); code != 0 {
			t.Fatalf("shalom-load %v exited %d:\n%s", args, code, p.output())
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		var r loadReport
		decode(t, f.Name(), b, &r)
		return r
	}
}

// load runs one shalom-load storm to completion; see startLoad.
func load(t *testing.T, dir, addr string, args ...string) loadReport {
	t.Helper()
	return startLoad(t, dir, addr, args...)()
}

// answered fails the test unless every request of the storm was answered:
// none shed, none errored.
func answered(t *testing.T, what string, r loadReport) {
	t.Helper()
	if r.OK != r.Requests || r.Shed != 0 || r.Errors != 0 {
		t.Fatalf("%s: %d of %d requests answered, %d shed, %d errors", what, r.OK, r.Requests, r.Shed, r.Errors)
	}
}

func decode(t *testing.T, what string, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %s: %v\n%s", what, err, b)
	}
}

// get fetches http://addr+path and requires a 200.
func get(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, b)
	}
	return b
}

func getJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	decode(t, path, get(t, addr, path), v)
}

// metrics maps each /metrics series, keyed by its name and label set as
// exposed (`name{k="v",...}`), to its value.
type metrics map[string]float64

func scrape(t *testing.T, addr string) metrics {
	t.Helper()
	m := metrics{}
	for _, line := range strings.Split(string(get(t, addr, "/metrics")), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ') // -1 leaves ParseFloat the whole line
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed /metrics sample %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// want fails the test unless every prefix starts at least one series key.
func (m metrics) want(t *testing.T, prefixes ...string) {
	t.Helper()
next:
	for _, p := range prefixes {
		for k := range m {
			if strings.HasPrefix(k, p) {
				continue next
			}
		}
		t.Errorf("/metrics has no series %s", p)
	}
}
