package server

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"libshalom"
	"libshalom/internal/mat"
)

// encodeValid builds the wire bytes of a well-formed request.
func encodeValid(t *testing.T, h Header, a32, b32, c32 []float32, a64, b64, c64 []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, h, a32, b32, c32, a64, b64, c64); err != nil {
		t.Fatalf("EncodeRequest: %v", err)
	}
	return buf.Bytes()
}

// The second shape's operands cross the 4 KiB header reader's buffer and
// end mid-buffer; the third's span two of the codecs' chunks and end
// mid-chunk.
func TestWireRoundTripF32(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, sh := range []struct{ m, n, k int }{{5, 7, 3}, {33, 31, 40}, {100, 90, 110}} {
		m, n, k := sh.m, sh.n, sh.k
		a := mat.RandomF32(m, k, rng).Data
		b := mat.RandomF32(k, n, rng).Data
		c := mat.RandomF32(m, n, rng).Data
		h := Header{Precision: "f32", Mode: "NN", M: m, N: n, K: k, Alpha: 1.5, Beta: -0.5, TimeoutMS: 250}
		req, err := DecodeRequest(bytes.NewReader(encodeValid(t, h, a, b, c, nil, nil, nil)), 0, 0)
		if err != nil {
			t.Fatalf("%dx%dx%d: DecodeRequest: %v", m, n, k, err)
		}
		if req.F64 || req.Mode != libshalom.NN || req.M != m || req.N != n || req.K != k {
			t.Fatalf("decoded shape = %+v", req)
		}
		if req.Alpha != 1.5 || req.Beta != -0.5 || req.Timeout.Milliseconds() != 250 {
			t.Fatalf("decoded scalars = %+v", req)
		}
		for name, pair := range map[string][2][]float32{"A": {req.A32, a}, "B": {req.B32, b}, "C": {req.C32, c}} {
			got, want := pair[0], pair[1]
			if len(got) != len(want) {
				t.Fatalf("%dx%dx%d: len(%s) = %d, want %d", m, n, k, name, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%dx%d: %s[%d] not bitwise-identical", m, n, k, name, i)
				}
			}
		}
	}
}

// A TransA request ships A as stored (k×m); the decoder must size it from
// the stored dims, not the logical ones. The second shape's operands cross
// the header reader's buffer and end mid-buffer; the third's span two
// chunks and end mid-chunk.
func TestWireRoundTripF64Transposed(t *testing.T) {
	rng := mat.NewRNG(2)
	for _, sh := range []struct{ m, n, k int }{{6, 4, 9}, {47, 45, 23}, {100, 90, 60}} {
		m, n, k := sh.m, sh.n, sh.k
		a := mat.RandomF64(k, m, rng).Data // stored k×m under TN
		b := mat.RandomF64(k, n, rng).Data
		h := Header{Precision: "f64", Mode: "TN", M: m, N: n, K: k, Alpha: 2, Beta: 0}
		req, err := DecodeRequest(bytes.NewReader(encodeValid(t, h, nil, nil, nil, a, b, nil)), 0, 0)
		if err != nil {
			t.Fatalf("%dx%dx%d: DecodeRequest: %v", m, n, k, err)
		}
		if !req.F64 || req.Mode != libshalom.TN {
			t.Fatalf("decoded = %+v", req)
		}
		if len(req.A64) != k*m || len(req.B64) != k*n {
			t.Fatalf("operand lengths %d, %d; want %d, %d", len(req.A64), len(req.B64), k*m, k*n)
		}
		for i := range a {
			if math.Float64bits(req.A64[i]) != math.Float64bits(a[i]) {
				t.Fatalf("%dx%dx%d: A[%d] not bitwise-identical", m, n, k, i)
			}
		}
		for i := range b {
			if math.Float64bits(req.B64[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%dx%dx%d: B[%d] not bitwise-identical", m, n, k, i)
			}
		}
		// beta == 0: no C on the wire, but the decoder provides a zeroed one.
		if len(req.C64) != m*n {
			t.Fatalf("len(C) = %d, want %d", len(req.C64), m*n)
		}
		for i, v := range req.C64 {
			if v != 0 {
				t.Fatalf("C[%d] = %v, want 0", i, v)
			}
		}
	}
}

// truncateAfterHeader cuts a valid wire body a few bytes into its payload.
func truncateAfterHeader(b []byte) []byte {
	return b[:bytes.IndexByte(b, '\n')+5]
}

func TestDecodeRequestRejects(t *testing.T) {
	rng := mat.NewRNG(3)
	a := mat.RandomF32(4, 4, rng).Data
	b := mat.RandomF32(4, 4, rng).Data
	valid := func(mut func(*Header)) []byte {
		h := Header{Precision: "f32", Mode: "NN", M: 4, N: 4, K: 4, Alpha: 1}
		mut(&h)
		return encodeValid(t, h, a, b, nil, nil, nil, nil)
	}
	// An A of 11,000 f32s spans two chunks; cut where the first ends, the
	// body must still read as torn, as one io.ReadFull of A would report.
	big := encodeValid(t, Header{Precision: "f32", Mode: "NN", M: 100, N: 90, K: 110, Alpha: 1},
		mat.RandomF32(100, 110, rng).Data, mat.RandomF32(110, 90, rng).Data, nil, nil, nil, nil)
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "reading request header"},
		{"no newline", []byte(`{"precision":"f32"}`), "reading request header"},
		{"malformed json", []byte("{nope}\n"), "malformed request header"},
		{"header too long", append(bytes.Repeat([]byte{' '}, MaxHeaderBytes+1), '\n'), "exceeds"},
		{"bad precision", valid(func(h *Header) { h.Precision = "f16" }), "unknown precision"},
		{"bad mode", valid(func(h *Header) { h.Mode = "XX" }), "mode"},
		{"zero dim", valid(func(h *Header) { h.M = 0 }), "non-positive"},
		{"negative dim", valid(func(h *Header) { h.K = -3 }), "non-positive"},
		{"oversize dim", valid(func(h *Header) { h.N = 1 << 20 }), "exceed"},
		{"negative timeout", valid(func(h *Header) { h.TimeoutMS = -1 }), "timeout_ms"},
		{"truncated payload", truncateAfterHeader(valid(func(h *Header) {})), "shorter"},
		{"truncated at a chunk's end", big[:bytes.IndexByte(big, '\n')+1+chunkBytes], "shorter than the header's dimensions imply: unexpected EOF"},
		{"trailing bytes", append(valid(func(h *Header) {}), 0xFF), "longer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeRequest(bytes.NewReader(tc.in), 4096, 1<<20)
			if err == nil {
				t.Fatalf("accepted %q: %+v", tc.name, req)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// NaN/Inf scalars are wire-level rejections: json.Marshal cannot emit them,
// so hand-build the header line.
func TestDecodeRequestRejectsNonFiniteScalars(t *testing.T) {
	for _, hdr := range []string{
		`{"precision":"f32","mode":"NN","m":2,"n":2,"k":2,"alpha":NaN,"beta":0}`,
		`{"precision":"f32","mode":"NN","m":2,"n":2,"k":2,"alpha":1,"beta":1e999}`,
		`{"precision":"f32","mode":"NN","m":2,"n":2,"k":2,"alpha":-1e999,"beta":0}`,
	} {
		_, err := DecodeRequest(strings.NewReader(hdr+"\n"), 0, 0)
		if err == nil {
			t.Fatalf("accepted non-finite scalars in %s", hdr)
		}
	}
}

// The payload bound must be enforced from the header alone, before any
// operand allocation: a 3×3×3 request under an 8-byte budget is refused
// even though its payload bytes never arrive.
func TestDecodeRequestBoundsPayloadBeforeAllocating(t *testing.T) {
	hdr := `{"precision":"f64","mode":"NN","m":3,"n":3,"k":3,"alpha":1,"beta":0}` + "\n"
	_, err := DecodeRequest(strings.NewReader(hdr), 4096, 8)
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("err = %v, want payload-limit rejection", err)
	}
}

func TestStoredDims(t *testing.T) {
	for _, tc := range []struct {
		mode           libshalom.Mode
		aR, aC, bR, bC int
	}{
		{libshalom.NN, 2, 4, 4, 3},
		{libshalom.NT, 2, 4, 3, 4},
		{libshalom.TN, 4, 2, 4, 3},
		{libshalom.TT, 4, 2, 3, 4},
	} {
		aR, aC, bR, bC := storedDims(tc.mode, 2, 3, 4)
		if aR != tc.aR || aC != tc.aC || bR != tc.bR || bC != tc.bC {
			t.Fatalf("%v: stored dims (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				tc.mode, aR, aC, bR, bC, tc.aR, tc.aC, tc.bR, tc.bC)
		}
	}
}

func TestDecodeResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	line := []byte(`{"status":"ok","batch_size":3,"queue_wait_us":17}` + "\n")
	buf.Write(line)
	c := []float32{1, -2, 3.5, 0}
	if err := writeF32s(&buf, c); err != nil {
		t.Fatal(err)
	}
	rh, got, _, err := DecodeResponse(&buf, 2, 2, false)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if rh.BatchSize != 3 || rh.QueueWaitUS != 17 || rh.Status != "ok" {
		t.Fatalf("header = %+v", rh)
	}
	for i := range c {
		if math.Float32bits(got[i]) != math.Float32bits(c[i]) {
			t.Fatalf("C[%d] mismatch", i)
		}
	}
}
