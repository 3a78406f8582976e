package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
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
