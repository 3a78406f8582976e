package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// host is the provenance of one run: what ran, where.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	// Commit is the VCS revision stamped into the binary, "unknown" when it
	// was built outside a repository; Source digests the Go sources and
	// go.mod files it was built from, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	// TimerFireUS is the median firing latency of time.AfterFunc(200µs):
	// the timer granularity that sets the coalescer's real window.
	TimerFireUS float64 `json:"timer_200us_fire_us"`
}

func probeHost() host {
	h := host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		Commit:      "unknown",
		Source:      sourceDigest("."),
		TimerFireUS: timerFireUS(40),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+modified"
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and .sh file under root, skipping
// hidden directories (build outputs, VCS metadata). Empty on error.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".sh") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return ""
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func timerFireUS(samples int) float64 {
	lat := make([]float64, samples)
	fired := make(chan time.Time, 1)
	for i := range lat {
		t0 := time.Now()
		time.AfterFunc(200*time.Microsecond, func() { fired <- time.Now() })
		lat[i] = float64((<-fired).Sub(t0).Nanoseconds()) / 1e3
	}
	return median(lat)
}

// comparableTo reports whether numbers from h can be compared with numbers
// from prev: same core count, GOMAXPROCS, Go version and CPU model, and a
// timer granularity within a factor of 1.5.
func (h host) comparableTo(prev host) (bool, string) {
	var why []string
	if h.NProc != prev.NProc || h.GOMAXPROCS != prev.GOMAXPROCS {
		why = append(why, fmt.Sprintf("cores %d/%d vs %d/%d", h.NProc, h.GOMAXPROCS, prev.NProc, prev.GOMAXPROCS))
	}
	if h.GoVersion != prev.GoVersion {
		why = append(why, fmt.Sprintf("Go %s vs %s", h.GoVersion, prev.GoVersion))
	}
	if h.CPU != prev.CPU {
		why = append(why, fmt.Sprintf("CPU %q vs %q", h.CPU, prev.CPU))
	}
	if r := h.TimerFireUS / prev.TimerFireUS; !(math.Abs(math.Log(r)) <= math.Log(1.5)) {
		why = append(why, fmt.Sprintf("timer fires after %.0fµs vs %.0fµs", h.TimerFireUS, prev.TimerFireUS))
	}
	if len(why) > 0 {
		return false, strings.Join(why, "; ")
	}
	return true, ""
}

// checkHost compares h with the host recorded by the first run in dir,
// recording h there when there is none yet.
func checkHost(dir string, h host) (bool, string, error) {
	path := filepath.Join(dir, "host.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = json.MarshalIndent(h, "", "  ")
		if err != nil {
			return false, "", err
		}
		return true, "", os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		return false, "", err
	}
	var prev host
	if err := json.Unmarshal(data, &prev); err != nil {
		return false, "", fmt.Errorf("reading %s: %w", path, err)
	}
	ok, why := h.comparableTo(prev)
	return ok, why, nil
}
