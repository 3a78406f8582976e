package server

import (
	"bytes"
	"testing"

	"libshalom/internal/mat"
)

// FuzzDecodeRequest drives the wire decoder with arbitrary bytes. The
// decoder's contract under hostile input: never panic, never allocate
// operands beyond what a validated header implies (the fuzz limits cap that
// at a few KiB, enough for payloads that cross the header reader's buffer), and
// when it does accept, the request must be internally consistent — stored
// operand lengths exactly matching the header's dimensions — and
// re-encoding its operands must give back the input's payload bytes.
func FuzzDecodeRequest(f *testing.F) {
	rng := mat.NewRNG(7)
	seed := func(h Header, a32, b32, c32 []float32, a64, b64, c64 []float64) {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, h, a32, b32, c32, a64, b64, c64); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	a := mat.RandomF32(3, 2, rng).Data
	b := mat.RandomF32(2, 4, rng).Data
	c := mat.RandomF32(3, 4, rng).Data
	seed(Header{Precision: "f32", Mode: "NN", M: 3, N: 4, K: 2, Alpha: 1}, a, b, nil, nil, nil, nil)
	seed(Header{Precision: "f32", Mode: "NN", M: 3, N: 4, K: 2, Alpha: 1, Beta: 0.5}, a, b, c, nil, nil, nil)
	a64 := mat.RandomF64(2, 3, rng).Data
	b64 := mat.RandomF64(4, 2, rng).Data
	seed(Header{Precision: "f64", Mode: "TT", M: 3, N: 4, K: 2, Alpha: -2, TimeoutMS: 5}, nil, nil, nil, a64, b64, nil)
	a16 := mat.RandomF64(16, 16, rng).Data
	b16 := mat.RandomF64(16, 16, rng).Data
	c16 := mat.RandomF64(16, 16, rng).Data
	seed(Header{Precision: "f64", Mode: "NT", M: 16, N: 16, K: 16, Alpha: 1, Beta: 1}, nil, nil, nil, a16, b16, c16)
	// Hostile headers: length lies, non-finite scalars, negative dims,
	// truncations. The JSON layer rejects some, the validators the rest;
	// either way the property below must hold.
	f.Add([]byte(`{"precision":"f32","mode":"NN","m":3,"n":4,"k":2,"alpha":1}` + "\n"))
	f.Add([]byte(`{"precision":"f32","mode":"NN","m":-3,"n":4,"k":2,"alpha":1}` + "\n" + "xxxx"))
	f.Add([]byte(`{"precision":"f64","mode":"NN","m":3,"n":4,"k":2,"alpha":NaN}` + "\n"))
	f.Add([]byte(`{"precision":"f32","mode":"NN","m":3,"n":4,"k":2,"beta":1e999}` + "\n"))
	f.Add([]byte(`{"precision":"f32","mode":"NN","m":1000000,"n":1000000,"k":1000000,"alpha":1}` + "\n"))
	f.Add([]byte("\n"))
	f.Add([]byte("{}\n"))

	const maxDim, maxPayload = 16, 1 << 13
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data), maxDim, maxPayload)
		if err != nil {
			return
		}
		if req.M <= 0 || req.N <= 0 || req.K <= 0 ||
			req.M > maxDim || req.N > maxDim || req.K > maxDim {
			t.Fatalf("accepted out-of-bounds dims %dx%dx%d", req.M, req.N, req.K)
		}
		if badScalar(req.Alpha) || badScalar(req.Beta) {
			t.Fatalf("accepted non-finite scalars %v, %v", req.Alpha, req.Beta)
		}
		if req.Timeout < 0 {
			t.Fatalf("accepted negative timeout %v", req.Timeout)
		}
		aR, aC, bR, bC := storedDims(req.Mode, req.M, req.N, req.K)
		if req.F64 {
			if len(req.A64) != aR*aC || len(req.B64) != bR*bC || len(req.C64) != req.M*req.N {
				t.Fatalf("inconsistent f64 operands: %d/%d/%d for %dx%dx%d %v",
					len(req.A64), len(req.B64), len(req.C64), req.M, req.N, req.K, req.Mode)
			}
		} else {
			if len(req.A32) != aR*aC || len(req.B32) != bR*bC || len(req.C32) != req.M*req.N {
				t.Fatalf("inconsistent f32 operands: %d/%d/%d for %dx%dx%d %v",
					len(req.A32), len(req.B32), len(req.C32), req.M, req.N, req.K, req.Mode)
			}
		}
		_, payload, err := wireParts(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		if in := data[bytes.IndexByte(data, '\n')+1:]; !bytes.Equal(payload, in) {
			t.Fatalf("re-encoded payload (%d bytes) differs from the accepted input's (%d bytes)", len(payload), len(in))
		}
	})
}
