package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"libshalom"
	"libshalom/internal/attrib"
	"libshalom/internal/journal"
	"libshalom/internal/server"
)

// attribEnv is a serving stack with the performance-attribution engine
// attached. The engine is never Started: tests close windows with Step()
// so every assertion is deterministic.
type attribEnv struct {
	lib *libshalom.Context
	eng *attrib.Engine
	srv *server.Server
	ts  *httptest.Server
}

// newAttribEnv builds the stack; journalDir, when non-empty, additionally
// attaches a telemetry-fed journal writer so its metric families populate.
func newAttribEnv(t *testing.T, cfg server.Config, journalDir string) *attribEnv {
	t.Helper()
	lib := libshalom.New(libshalom.WithTelemetry(), libshalom.WithThreads(1))
	eng := attrib.New(attrib.Config{
		Recorder:       lib.TelemetryRecorder(),
		Window:         50 * time.Millisecond,
		MinWindowCalls: 1,
	})
	if eng == nil {
		t.Fatal("attrib.New returned nil with a live recorder")
	}
	cfg.Attrib = eng
	var jw *journal.Writer
	if journalDir != "" {
		var err error
		jw, err = journal.Open(journal.Options{Dir: journalDir, Telemetry: lib.TelemetryRecorder()})
		if err != nil {
			t.Fatalf("journal.Open: %v", err)
		}
		cfg.Journal = jw
	}
	e := &attribEnv{lib: lib, eng: eng, srv: server.New(lib, cfg)}
	e.ts = httptest.NewServer(e.srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := e.srv.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
		e.ts.Close()
		e.lib.Close()
		if jw != nil {
			if err := jw.Close(); err != nil {
				t.Errorf("journal close: %v", err)
			}
		}
	})
	return e
}

// get fetches one endpoint and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(raw)
}

// The /attrib endpoint serves the engine's report, /healthz grows an
// attribution section, and /metrics appends the engine's gauge family to
// the recorder's exposition.
func TestServeAttribReportHealthzAndMetrics(t *testing.T) {
	e := newAttribEnv(t, server.Config{}, "")
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	for i := 0; i < 4; i++ {
		p := newProblem(t, direct, uint64(100+i), 32, 32, 32, 0)
		resp, raw := postEnv(t, e.ts.URL, p.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: HTTP %d: %s", i, resp.StatusCode, raw)
		}
	}
	e.eng.Step()

	status, body := get(t, e.ts.URL+"/attrib")
	if status != http.StatusOK {
		t.Fatalf("/attrib: HTTP %d: %s", status, body)
	}
	var rep attrib.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/attrib body does not decode: %v\n%s", err, body)
	}
	if rep.Windows < 1 || len(rep.Candidates) == 0 || rep.Platform == "" {
		t.Fatalf("/attrib report incomplete: %+v", rep)
	}
	if c := rep.Candidates[0]; c.Calls == 0 || c.MeasuredGFLOPS <= 0 || c.PredictedGFLOPS <= 0 {
		t.Fatalf("/attrib top candidate has no account: %+v", c)
	}

	status, body = get(t, e.ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", status)
	}
	var hz struct {
		Attribution *struct {
			Windows      uint64  `json:"windows"`
			DriftEvents  uint64  `json:"drift_events"`
			Calibration  float64 `json:"calibration"`
			TopCandidate string  `json:"top_candidate"`
		} `json:"attribution"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatalf("/healthz body does not decode: %v", err)
	}
	if hz.Attribution == nil {
		t.Fatalf("/healthz has no attribution section:\n%s", body)
	}
	if hz.Attribution.Windows < 1 || hz.Attribution.TopCandidate == "" {
		t.Fatalf("/healthz attribution section incomplete: %+v", hz.Attribution)
	}

	status, body = get(t, e.ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	for _, want := range []string{
		"libshalom_attrib_calls_total",    // the recorder's sketch counters
		"libshalom_attrib_rel_efficiency", // the engine's gauge family
		"libshalom_attrib_candidate_score",
		"libshalom_go_goroutines", // runtime essentials, sampled on scrape
		"libshalom_go_heap_objects_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// Without an engine, /attrib answers 404; without -pprof, the profiling
// surface stays unmounted.
func TestServeAttribAndPprofOffByDefault(t *testing.T) {
	e := newEnv(t, server.Config{})
	if status, _ := get(t, e.ts.URL+"/attrib"); status != http.StatusNotFound {
		t.Fatalf("/attrib without an engine: HTTP %d, want 404", status)
	}
	if status, _ := get(t, e.ts.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without Pprof: HTTP %d, want 404", status)
	}
}

// Pprof mounts the stdlib profiling handlers on the serving mux.
func TestServePprofOptIn(t *testing.T) {
	e := newEnv(t, server.Config{Pprof: true})
	status, body := get(t, e.ts.URL+"/debug/pprof/")
	if status != http.StatusOK {
		t.Fatalf("/debug/pprof/: HTTP %d", status)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index does not list profiles:\n%s", body)
	}
	if status, _ := get(t, e.ts.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: HTTP %d", status)
	}
}

// postEnv posts one encoded request to an arbitrary base URL.
func postEnv(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/gemm", "application/octet-stream", strings.NewReader(string(body)))
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

// TestMetricsExpositionWellFormed is the exposition-contract test: it
// drives a fully-populated stack (journal on, attribution on, accepted and
// rejected traffic, closed windows) and validates every line /metrics
// emits against the Prometheus text format — HELP/TYPE pairing, metric
// and label name syntax, label escaping, float-parseable values, and no
// duplicate series across the combined recorder + runtime + engine page.
func TestMetricsExpositionWellFormed(t *testing.T) {
	e := newAttribEnv(t, server.Config{Pprof: true}, t.TempDir())
	direct := libshalom.New(libshalom.WithThreads(1))
	defer direct.Close()
	// Accepted traffic on two shape classes, one rejected request, and a
	// closed attribution window: every conditional family has samples.
	for i, dims := range [][3]int{{12, 12, 12}, {48, 48, 48}, {64, 96, 32}} {
		p := newProblem(t, direct, uint64(300+i), dims[0], dims[1], dims[2], 0)
		resp, raw := postEnv(t, e.ts.URL, p.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %v: HTTP %d: %s", dims, resp.StatusCode, raw)
		}
	}
	if resp, _ := postEnv(t, e.ts.URL, []byte("not a request\n")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed request: HTTP %d, want 400", resp.StatusCode)
	}
	e.eng.Step()

	status, body := get(t, e.ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	if samples := len(validatePrometheus(t, body)); samples < 50 {
		t.Fatalf("suspiciously small exposition: %d samples", samples)
	}
	for _, want := range []string{"libshalom_journal_records_total", "libshalom_server_requests_rejected_total", "libshalom_attrib_rel_efficiency"} {
		if !strings.Contains(body, want) {
			t.Errorf("populated exposition missing %s", want)
		}
	}
}

// validatePrometheus parses a text-format (0.0.4) exposition with the
// stdlib alone and fails the test on any malformed line. It returns every
// sample's value keyed by its canonical series key: the sample name and its
// sorted name=value label pairs, as in name{a=x,le=1}.
func validatePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	type family struct {
		help bool
		typ  string
	}
	families := map[string]*family{}
	series := map[string]int{} // canonical series key -> first line number
	values := map[string]float64{}

	validName := func(s string) bool {
		for i, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			case r >= '0' && r <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return s != ""
	}
	validLabelName := func(s string) bool {
		for i, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			case r >= '0' && r <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return s != ""
	}
	// familyOf resolves a sample name to its declared family, honouring
	// the histogram suffixes.
	familyOf := func(name string) (string, *family) {
		if f := families[name]; f != nil {
			return name, f
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f := families[base]; f != nil && f.typ == "histogram" {
					return base, f
				}
			}
		}
		return name, nil
	}

	for ln, line := range strings.Split(text, "\n") {
		ln++ // 1-indexed for messages
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" || !validName(name) {
				t.Errorf("line %d: malformed HELP: %q", ln, line)
				continue
			}
			if families[name] != nil {
				t.Errorf("line %d: duplicate HELP for %s", ln, name)
				continue
			}
			families[name] = &family{help: true}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validName(name) {
				t.Errorf("line %d: malformed TYPE: %q", ln, line)
				continue
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: invalid TYPE %q for %s", ln, typ, name)
			}
			f := families[name]
			if f == nil || !f.help {
				t.Errorf("line %d: TYPE for %s has no preceding HELP", ln, name)
				continue
			}
			if f.typ != "" {
				t.Errorf("line %d: duplicate TYPE for %s", ln, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}

		// Sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			t.Errorf("line %d: no value: %q", ln, line)
			continue
		}
		name := line[:nameEnd]
		if !validName(name) {
			t.Errorf("line %d: invalid metric name %q", ln, name)
			continue
		}
		famName, fam := familyOf(name)
		if fam == nil || fam.typ == "" || !fam.help {
			t.Errorf("line %d: sample %s has no HELP/TYPE pair (family %s)", ln, name, famName)
		}
		rest := line[nameEnd:]
		var labels []string
		if rest[0] == '{' {
			i := 1
			for {
				if i < len(rest) && rest[i] == '}' {
					i++
					break
				}
				eq := strings.IndexByte(rest[i:], '=')
				if eq < 0 {
					t.Errorf("line %d: unterminated label set", ln)
					break
				}
				lname := rest[i : i+eq]
				if !validLabelName(lname) {
					t.Errorf("line %d: invalid label name %q", ln, lname)
				}
				i += eq + 1
				if i >= len(rest) || rest[i] != '"' {
					t.Errorf("line %d: label %s value is not quoted", ln, lname)
					break
				}
				i++
				var val strings.Builder
				closed := false
				for i < len(rest) {
					c := rest[i]
					if c == '\\' {
						if i+1 >= len(rest) {
							break
						}
						switch rest[i+1] {
						case '\\', '"', 'n':
							val.WriteByte(rest[i+1])
						default:
							t.Errorf("line %d: invalid escape \\%c in label %s", ln, rest[i+1], lname)
						}
						i += 2
						continue
					}
					if c == '"' {
						closed = true
						i++
						break
					}
					val.WriteByte(c)
					i++
				}
				if !closed {
					t.Errorf("line %d: unterminated label value for %s", ln, lname)
					break
				}
				labels = append(labels, lname+"="+val.String())
				if i < len(rest) && rest[i] == ',' {
					i++
				}
			}
			rest = rest[i:]
		}
		valueStr := strings.TrimSpace(rest)
		if fields := strings.Fields(valueStr); len(fields) > 0 {
			valueStr = fields[0] // a timestamp may follow; we never emit one
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Errorf("line %d: value %q does not parse: %v", ln, valueStr, err)
		}
		sort.Strings(labels)
		key := fmt.Sprintf("%s{%s}", name, strings.Join(labels, ","))
		if first, dup := series[key]; dup {
			t.Errorf("line %d: duplicate series %s (first at line %d)", ln, key, first)
		} else {
			series[key] = ln
			values[key] = value
		}
	}
	for name, f := range families {
		if !f.help || f.typ == "" {
			t.Errorf("family %s missing its HELP/TYPE pair", name)
		}
	}
	return values
}
