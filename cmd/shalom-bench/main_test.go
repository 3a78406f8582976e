package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"libshalom/internal/isacheck"
	"libshalom/internal/platform"
)

func runTool(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExpAllGolden pins every modeled number: -exp all must print
// results_all_experiments.txt byte for byte, so a change to a kernel, the
// planner, a partition or a platform model cannot move a paper figure
// without the committed output moving with it.
func TestExpAllGolden(t *testing.T) {
	want, err := os.ReadFile("../../results_all_experiments.txt")
	if err != nil {
		t.Fatal(err)
	}
	code, got, errb := runTool("-exp", "all")
	if code != 0 {
		t.Fatalf("-exp all: code %d\n%s", code, errb)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("-exp all differs from results_all_experiments.txt at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("-exp all prints %d lines, results_all_experiments.txt has %d", len(gl), len(wl))
}

// TestREADMEExamples runs the README's example of each subcommand: each
// exits 0 with output. Usage errors exit 2 in every subcommand.
func TestREADMEExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-list"},
		{"-exp", "fig7"},
		{"info", "-platform", "kp920"},
		{"predict", "-m", "64", "-n", "50176", "-k", "576", "-mode", "NT", "-threads", "0"},
		{"kernels", "-kernel", "main"},
		{"lint"},
	} {
		cmd := "go run ./cmd/shalom-bench " + strings.Join(args, " ")
		if !bytes.Contains(readme, []byte(cmd)) {
			t.Errorf("README does not show %q", cmd)
		}
		if code, out, errb := runTool(args...); code != 0 || out == "" {
			t.Errorf("%s: code %d, %d bytes out\n%s", cmd, code, len(out), errb)
		}
	}
	for _, args := range [][]string{
		{"nosuch"},
		{"-nosuchflag"},
		{"-exp", "nosuch"},
		{"info", "-platform", "nosuch"},
		{"info", "-nosuchflag"},
		{"predict", "-platform", "nosuch"},
		{"predict", "-mode", "XX"},
		{"predict", "-nosuchflag"},
		{"kernels", "-kernel", "nosuch"},
		{"kernels", "-kernel", "edge-sched", "-fp64"},
		{"kernels", "-nosuchflag"},
		{"lint", "-platform", "nosuch"},
	} {
		if code, _, errb := runTool(args...); code != 2 || errb == "" {
			t.Errorf("%v: code %d, stderr %q; want 2 with a message", args, code, errb)
		}
	}
}

// TestPlatformNames keeps the -platform help honest: every name it lists
// resolves, and every platform is listed.
func TestPlatformNames(t *testing.T) {
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`"([^"]+)"|([a-z0-9]+)`).FindAllStringSubmatch(platformNames, -1) {
		name := m[1] + m[2]
		if name == "or" {
			continue
		}
		if platform.ByName(name) == nil {
			t.Errorf("help lists %q, which platform.ByName rejects", name)
		}
		listed[name] = true
	}
	for _, p := range platform.All() {
		if !listed[p.Name] {
			t.Errorf("help does not list %q", p.Name)
		}
	}
}

func TestLintCleanCatalogue(t *testing.T) {
	code, out, errb := runTool("lint")
	if code != 0 {
		t.Fatalf("catalogue should verify: code %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "0 failing") {
		t.Errorf("summary line missing:\n%s", out)
	}
	// The symbolic footprint pass must appear for every entry: 6/6 passes.
	if !strings.Contains(out, "6/6") {
		t.Errorf("expected 6/6 pass columns (symfoot wired in):\n%s", out)
	}
}

func TestLintJSON(t *testing.T) {
	code, out, _ := runTool("lint", "-json", "-kernel", "main-7x12")
	if code != 0 {
		t.Fatalf("code %d", code)
	}
	var results []isacheck.KernelResult
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("output is not the documented JSON: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("no results decoded")
	}
	var symfoot bool
	for _, p := range results[0].Passes {
		if p.Pass == "symfoot" {
			symfoot = true
		}
	}
	if !symfoot {
		t.Errorf("symfoot pass missing from %s", results[0].Kernel)
	}
}

func TestLintUsageErrors(t *testing.T) {
	if code, _, _ := runTool("lint", "-platform", "nosuch"); code != 2 {
		t.Errorf("unknown platform: code %d, want 2", code)
	}
	if code, _, _ := runTool("lint", "-kernel", "nosuchkernel"); code != 2 {
		t.Errorf("empty selection: code %d, want 2", code)
	}
	if code, _, _ := runTool("lint", "-nosuchflag"); code != 2 {
		t.Errorf("bad flag: code %d, want 2", code)
	}
}
