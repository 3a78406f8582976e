package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesMetricSets(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the benchmark", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndUnits)
	check("per_layer", bf.PerLayer, perLayerUnits)
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
		}
	}
}

// TestCallQuantileReadsUndisturbedRate checks that rating by the 0.1 call
// quantile reads the undisturbed rate while a fifth of each shape's calls
// run undisturbed, where the median round reads the slowed one.
func TestCallQuantileReadsUndisturbedRate(t *testing.T) {
	ops := []*op{{spec: spec{m: 10, n: 10, k: 10}}, {spec: spec{m: 20, n: 20, k: 20}}}
	r := clientResult{samples: make([]sample, 0, 1000)}
	for i := 0; i < 1000; i++ {
		dur := time.Duration(ops[i%2].flops()) // 1 GFLOP/s
		if i%10 >= 2 {
			dur *= 4
		}
		r.record(i%2, dur, true, nil)
	}
	res := []clientResult{r}
	rps, g := rates(ops, res, 0.1)
	if math.Abs(g-1) > 1e-9 {
		t.Errorf("rated by the 0.1 call quantile: %v GFLOP/s, want 1", g)
	}
	if want := 2e9 / (ops[0].flops() + ops[1].flops()); math.Abs(rps-want) > 1e-6*want {
		t.Errorf("rated by the 0.1 call quantile: %v calls/s, want %v", rps, want)
	}
	if _, g := rates(ops, res, 0); math.Abs(g-0.25) > 1e-9 {
		t.Errorf("rated by median rounds: %v GFLOP/s, want 0.25", g)
	}
}

// TestSelfTest runs every workload briefly, untraced and traced, and
// checks the output format: every metric printed with its unit, ops
// attempted, none failed, and a valid span file.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	for _, w := range bf.Workloads {
		for trace, units := range []map[string]string{endToEndUnits, perLayerUnits} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.4", "--trace", fmt.Sprint(trace), "--out", out}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct %t, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(units) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(units))
				}
				for name, unit := range units {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
					}
					printed := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(unit) + `$`)
					if !printed.MatchString(stdout.String()) {
						t.Errorf("metric %s is not printed with its unit %s", name, unit)
					}
				}
				if !regexp.MustCompile(`(?m)^  fail_pct +0 %`).MatchString(stdout.String()) {
					t.Errorf("fail_pct is not 0:\n%s", stdout.String())
				}
				if trace == 1 {
					f, err := os.Open(filepath.Join(out, fmt.Sprintf("trace-%s-seed3.json", w.Name)))
					if err != nil {
						t.Fatal(err)
					}
					defer f.Close()
					if err := validateTrace(f); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// validateTrace checks a Chrome trace_event file: well-formed JSON in the
// object-wrapped array format, every event a B or E with name, ts, pid and
// tid, and per (pid, tid) lane non-decreasing timestamps with B/E events
// balanced and name-matched.
func validateTrace(f *os.File) error {
	var tf struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			TS   *float64 `json:"ts"`
			PID  *int32   `json:"pid"`
			TID  *int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(f).Decode(&tf); err != nil {
		return fmt.Errorf("trace is not valid JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events")
	}
	type lane struct{ pid, tid int32 }
	open := map[lane][]string{}
	last := map[lane]float64{}
	for i, ev := range tf.TraceEvents {
		if ev.Name == nil || ev.Ph == nil || ev.TS == nil || ev.PID == nil || ev.TID == nil {
			return fmt.Errorf("event %d lacks name, ph, ts, pid or tid", i)
		}
		l := lane{*ev.PID, *ev.TID}
		if prev, ok := last[l]; ok && *ev.TS < prev {
			return fmt.Errorf("event %d: ts %v before %v on lane %v", i, *ev.TS, prev, l)
		}
		last[l] = *ev.TS
		switch *ev.Ph {
		case "B":
			open[l] = append(open[l], *ev.Name)
		case "E":
			st := open[l]
			if len(st) == 0 || st[len(st)-1] != *ev.Name {
				return fmt.Errorf("event %d: E %q does not close the open span on lane %v", i, *ev.Name, l)
			}
			open[l] = st[:len(st)-1]
		default:
			return fmt.Errorf("event %d: phase %q", i, *ev.Ph)
		}
	}
	for l, st := range open {
		if len(st) > 0 {
			return fmt.Errorf("lane %v ends with %d open spans", l, len(st))
		}
	}
	return nil
}
