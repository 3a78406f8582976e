//go:build !race

// The race detector's sync.Pool drops a random share of Puts, so the pooled
// wire path's pins cannot hold under it; this file builds without it only.

package server

import (
	"bytes"
	"runtime"
	"testing"

	"libshalom/internal/mat"
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

// The wire pins below hold the codecs to one copy: decoding allocates the
// operands it returns and about 1 KiB more (the header, the Request), never
// a staging buffer or a reader; encoding allocates nothing. A pin may only
// go down.
const pinDim = 64

func TestDecodeRequestAllocBytes(t *testing.T) {
	rng := mat.NewRNG(4)
	a := mat.RandomF32(pinDim, pinDim, rng).Data
	b := mat.RandomF32(pinDim, pinDim, rng).Data
	body := encodeValid(t, Header{Precision: "f32", Mode: "NN", M: pinDim, N: pinDim, K: pinDim, Alpha: 1}, a, b, nil, nil, nil, nil)
	var rd bytes.Reader
	got := bytesPerRun(50, func() {
		rd.Reset(body)
		if _, err := DecodeRequest(&rd, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3*pinDim*pinDim*4 + 1024); got > limit {
		t.Errorf("DecodeRequest of an f32 NN %d³ request allocates %.0f B/op, want at most %.0f (A, B, C and 1 KiB)", pinDim, got, limit)
	}
}

func TestDecodeResponseAllocBytes(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"status":"ok","batch_size":1,"queue_wait_us":3}` + "\n")
	if err := writeF32s(&body, mat.RandomF32(pinDim, pinDim, mat.NewRNG(5)).Data); err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	got := bytesPerRun(50, func() {
		rd.Reset(body.Bytes())
		if _, _, _, err := DecodeResponse(&rd, pinDim, pinDim, false); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(pinDim*pinDim*4 + 1024); got > limit {
		t.Errorf("DecodeResponse of a %d×%d f32 answer allocates %.0f B/op, want at most %.0f (C and 1 KiB)", pinDim, pinDim, got, limit)
	}
}

func TestWireEncodeAllocFree(t *testing.T) {
	rng := mat.NewRNG(6)
	v32 := mat.RandomF32(pinDim, pinDim, rng).Data
	v64 := mat.RandomF64(pinDim, pinDim, rng).Data
	var buf bytes.Buffer
	buf.Grow(8 * len(v64))
	if n := testing.AllocsPerRun(50, func() {
		buf.Reset()
		_ = writeF32s(&buf, v32)
	}); n != 0 {
		t.Errorf("writeF32s into a pre-grown buffer allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		buf.Reset()
		_ = writeF64s(&buf, v64)
	}); n != 0 {
		t.Errorf("writeF64s into a pre-grown buffer allocates %.1f allocs/op, want 0", n)
	}
}
