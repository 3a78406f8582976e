package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"libshalom/internal/analytic"
)

// TestGeneratedFileCurrent regenerates blocks_gen.go in memory and fails on
// any byte that differs from the committed file, so a template edit without
// `go generate ./internal/kernels` cannot land.
func TestGeneratedFileCurrent(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", outFile)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	line := 1
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			break
		}
		if got[i] == '\n' {
			line++
		}
	}
	t.Fatalf("%s is stale from line %d (%d bytes committed, %d generated); run go generate ./internal/kernels", path, line, len(got), len(want))
}

// TestBlockFitsHostRegisters pins the block shape to Eq. 1 with scalar lanes
// and the 15 allocatable XMM registers of Go's amd64 ABI.
func TestBlockFitsHostRegisters(t *testing.T) {
	const hostFPRegisters = 15
	if !analytic.Feasible(blockRows, blockCols, 1, hostFPRegisters) {
		t.Fatalf("%d×%d block needs %d registers, more than %d",
			blockRows, blockCols, analytic.RegistersNeeded(blockRows, blockCols, 1), hostFPRegisters)
	}
}

// TestGeneratedHeader checks the stamp that gofmt, vet and code review tools
// key on to treat the file as generated (the pattern of go help generate).
func TestGeneratedHeader(t *testing.T) {
	src, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^// Code generated .* DO NOT EDIT\.$`).Match(src) {
		t.Fatal("generated file lacks the // Code generated ... DO NOT EDIT. line")
	}
}

// TestBoundsChecksPinned pins the bounds checks the compiler leaves in the
// generated blocks and sweeps, counted by kind from
// -d=ssa/check_bce/debug=1 on internal/core, which instantiates every
// block in both precisions. IsInBounds is an index check, IsSliceInBounds
// a slicing check (with the pointer mask a slice that may be empty
// needs). The NN blocks load their B pair by index, so every check in a k
// loop is an index check; a template edit that brings back a per-k slice,
// or adds a per-k index check, raises a count. Like the allocation pins, a
// count may only go down.
func TestBoundsChecksPinned(t *testing.T) {
	pins := map[string]int{"IsInBounds": 14, "IsSliceInBounds": 198}
	// go test puts its own go command first on the PATH, and the build
	// cache replays the compiler's diagnostics on a hit.
	out, err := exec.Command("go", "build", "-gcflags=libshalom/internal/core=-d=ssa/check_bce/debug=1", "libshalom/internal/core").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	got := map[string]int{}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, outFile+":") {
			f := strings.Fields(line)
			got[f[len(f)-1]]++
		}
	}
	if len(got) == 0 {
		t.Fatalf("the compiler reported no checks in %s; is its output format unchanged?\n%s", outFile, out)
	}
	t.Logf("bounds checks in %s: %v", outFile, got)
	for kind, n := range got {
		if n > pins[kind] {
			t.Errorf("%s: %d %s checks, pinned at %d", outFile, n, kind, pins[kind])
		}
	}
}
