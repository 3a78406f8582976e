//go:build !race

// The race detector's sync.Pool drops a random share of Puts, so the pooled
// wire path's pins cannot hold under it; this file builds without it only.

package router

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"libshalom/internal/mat"
	"libshalom/internal/server"
)

// bytesPerRun is testing.AllocsPerRun's twin for bytes: the mean heap bytes
// one call of f allocates, measured on one P after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The router's twin of the server's wire pins: reading a request allocates
// its payload once, at the size its header implies, plus about 1 KiB for
// the header — no growing read and no reader of its own. A pin may only
// go down.
func TestReadRequestAllocBytes(t *testing.T) {
	const s = 64
	rng := mat.NewRNG(4)
	h := server.Header{Precision: "f32", Mode: "NN", M: s, N: s, K: s, Alpha: 1}
	var body bytes.Buffer
	if err := server.EncodeRequest(&body, h, mat.RandomF32(s, s, rng).Data, mat.RandomF32(s, s, rng).Data, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	payload := body.Len() - bytes.IndexByte(body.Bytes(), '\n') - 1
	var rd bytes.Reader
	got := bytesPerRun(50, func() {
		rd.Reset(body.Bytes())
		if _, p, err := readRequest(&rd, server.DefaultMaxPayloadBytes); err != nil || len(p) != payload {
			t.Fatalf("readRequest: %d payload bytes, %v; want %d", len(p), err, payload)
		}
	})
	if limit := float64(payload + 1024); got > limit {
		t.Errorf("readRequest of an f32 NN %d³ request allocates %.0f B/op, want at most %.0f (its payload and 1 KiB)", s, got, limit)
	}
}

// A header that declares the largest payload the limit allows, followed by
// almost nothing, must not make the router allocate that payload: what it
// sizes before the bytes arrive stays within firstAllocBytes.
func TestReadRequestPresizeBounded(t *testing.T) {
	hdr := `{"precision":"f32","mode":"NN","m":8388608,"n":8388608,"k":1,"alpha":1}` // 64 MiB implied
	var rd strings.Reader
	got := bytesPerRun(10, func() {
		rd.Reset(hdr + "\npayload-bytes")
		if _, p, err := readRequest(&rd, server.DefaultMaxPayloadBytes); err != nil || string(p) != "payload-bytes" {
			t.Fatalf("readRequest: payload %q, %v", p, err)
		}
	})
	if limit := float64(firstAllocBytes + 1024); got > limit {
		t.Errorf("readRequest of a 64 MiB header with a 13-byte body allocates %.0f B/op, want at most %.0f (firstAllocBytes and 1 KiB)", got, limit)
	}
}
