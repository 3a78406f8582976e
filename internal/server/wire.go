// Package server is LibShalom's GEMM serving subsystem: an HTTP front door
// that accepts small and irregular GEMM requests, classifies each by its
// telemetry shape class, and coalesces concurrent requests of one
// (precision, mode, shape class) into a single batch dispatch on the shared
// Context — so N concurrent 16×16 GEMMs cost one pool dispatch instead of
// N. This is the paper's premise applied to serving: when small problems
// arrive in huge numbers, per-call overhead dominates, and the fix is to
// amortize it across many problems (§7.4's batch parallelization model, the
// CP2K pattern), here at the request level rather than the call level.
//
// Around the coalescing core the server provides bounded admission with
// load shedding (HTTP 429 + Retry-After), per-request deadlines that drop
// expired work before it is computed, graceful drain (stop accepting, flush
// resident batches, answer every admitted request), and the library's
// observability surface (/metrics, /healthz, /snapshot) extended with
// serving-layer counters.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"libshalom"
)

// Wire format of one GEMM request (POST /v1/gemm):
//
//	JSON header, terminated by '\n', at most MaxHeaderBytes long
//	little-endian binary payload: op(A) as stored, op(B) as stored,
//	then C — present if and only if beta ≠ 0
//
// Operands are packed row-major exactly as the GEMM call stores them: a
// TransA request ships A as the K×M matrix it is stored as, and leading
// dimensions are implied (the stored row length). The response mirrors the
// shape: a JSON header line followed by the m×n C payload.
//
// A payload is copied once on its way in and once on its way out. The
// decoders read the header line through a pooled MaxHeaderBytes reader;
// both directions stage each operand through one pooled chunk. The only
// buffers sized from a header are the operands themselves, and only after
// PayloadBytes has checked the header against the payload limit.

// MaxHeaderBytes bounds the JSON header line of a request, and of a
// response.
const MaxHeaderBytes = 4096

// Default decode limits; Config overrides them.
const (
	DefaultMaxDim          = 4096
	DefaultMaxPayloadBytes = 64 << 20
)

// Header is the JSON request header. Alpha and Beta are float64 on the wire
// for both precisions; f32 requests narrow them.
type Header struct {
	Precision string  `json:"precision"` // "f32" or "f64"
	Mode      string  `json:"mode"`      // "NN", "NT", "TN", "TT"
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	// TimeoutMS is the request deadline in milliseconds from arrival; 0
	// selects the server's default, negative is rejected. A request whose
	// deadline passes before its batch flushes is dropped unrun (HTTP 504).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ResponseHeader is the JSON line preceding the C payload of a 200 response.
type ResponseHeader struct {
	Status string `json:"status"` // "ok"
	// BatchSize is how many requests shared this request's flush — the
	// coalescing win observable per response (sizes > 1 amortized dispatch).
	BatchSize int `json:"batch_size"`
	// QueueWaitUS is how long the request sat in the coalescing queue.
	QueueWaitUS int64 `json:"queue_wait_us"`
}

// Request is one decoded GEMM request.
type Request struct {
	F64     bool
	Mode    libshalom.Mode
	M, N, K int
	Alpha   float64
	Beta    float64
	Timeout time.Duration // 0: none specified

	// Operands; the precision selects which triple is populated. Leading
	// dimensions are implied packed (stored row length).
	A32, B32, C32 []float32
	A64, B64, C64 []float64
}

// Flops returns the request's 2·M·N·K operation count.
func (r *Request) Flops() float64 { return 2 * float64(r.M) * float64(r.N) * float64(r.K) }

// storedDims returns the stored row-major dimensions of the operands for a
// mode: op(A) is m×k but a TransA request stores A as k×m, and so on.
func storedDims(mode libshalom.Mode, m, n, k int) (aRows, aCols, bRows, bCols int) {
	aRows, aCols = m, k
	if mode.TransA() {
		aRows, aCols = k, m
	}
	bRows, bCols = k, n
	if mode.TransB() {
		bRows, bCols = n, k
	}
	return
}

// DecodeRequest reads and validates one request from r. Every validation —
// header shape, dimension bounds, finite scalars, exact payload length —
// happens before the corresponding allocation, so a hostile or truncated
// request is rejected without panicking and without allocating more than
// the declared (and bounded) payload. maxDim caps each of m, n, k; maxPayload
// caps the total operand bytes; zero values select the defaults.
func DecodeRequest(r io.Reader, maxDim int, maxPayload int64) (*Request, error) {
	if maxDim <= 0 {
		maxDim = DefaultMaxDim
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayloadBytes
	}
	br := AcquireReader(r)
	defer ReleaseReader(br)
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("server: request header exceeds %d bytes", MaxHeaderBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("server: reading request header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("server: malformed request header: %w", err)
	}
	var f64 bool
	switch h.Precision {
	case "f32":
	case "f64":
		f64 = true
	default:
		return nil, fmt.Errorf("server: unknown precision %q (want f32 or f64)", h.Precision)
	}
	mode, err := libshalom.ParseMode(h.Mode)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if h.M <= 0 || h.N <= 0 || h.K <= 0 {
		return nil, fmt.Errorf("server: non-positive dimensions %dx%dx%d", h.M, h.N, h.K)
	}
	if h.M > maxDim || h.N > maxDim || h.K > maxDim {
		return nil, fmt.Errorf("server: dimensions %dx%dx%d exceed the per-dimension limit %d", h.M, h.N, h.K, maxDim)
	}
	if badScalar(h.Alpha) || badScalar(h.Beta) {
		return nil, fmt.Errorf("server: non-finite alpha/beta (%v, %v)", h.Alpha, h.Beta)
	}
	if h.TimeoutMS < 0 {
		return nil, fmt.Errorf("server: negative timeout_ms %d", h.TimeoutMS)
	}
	if size, ok := PayloadBytes(h, maxPayload); !ok {
		return nil, fmt.Errorf("server: payload %d bytes exceeds the limit %d", size, maxPayload)
	}
	nA, nB, nC := h.M*h.K, h.K*h.N, h.M*h.N
	req := &Request{
		F64: f64, Mode: mode, M: h.M, N: h.N, K: h.K,
		Alpha: h.Alpha, Beta: h.Beta,
		Timeout: time.Duration(h.TimeoutMS) * time.Millisecond,
	}
	if f64 {
		if req.A64, err = readF64s(br, nA); err != nil {
			return nil, fmt.Errorf("server: A payload: %w", err)
		}
		if req.B64, err = readF64s(br, nB); err != nil {
			return nil, fmt.Errorf("server: B payload: %w", err)
		}
		if h.Beta != 0 {
			if req.C64, err = readF64s(br, nC); err != nil {
				return nil, fmt.Errorf("server: C payload: %w", err)
			}
		} else {
			req.C64 = make([]float64, nC)
		}
	} else {
		if req.A32, err = readF32s(br, nA); err != nil {
			return nil, fmt.Errorf("server: A payload: %w", err)
		}
		if req.B32, err = readF32s(br, nB); err != nil {
			return nil, fmt.Errorf("server: B payload: %w", err)
		}
		if h.Beta != 0 {
			if req.C32, err = readF32s(br, nC); err != nil {
				return nil, fmt.Errorf("server: C payload: %w", err)
			}
		} else {
			req.C32 = make([]float32, nC)
		}
	}
	// The payload must end exactly where the dimensions say it does: a
	// trailing byte means the header and payload disagree.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("server: payload longer than the header's dimensions imply")
	}
	return req, nil
}

// badScalar rejects NaN and ±Inf wire scalars: a non-finite alpha/beta
// poisons every element of C, and no legitimate client sends one.
func badScalar(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// PayloadBytes returns the operand payload, in bytes, that h implies:
// (m·k + k·n, plus m·n when β ≠ 0) × the element size. Transposition
// changes how an operand is stored, not how many elements it has, so the
// size is the same for every mode. ok reports whether the size is at most
// limit. The arithmetic saturates at math.MaxInt64, which is never ok, so
// dimensions whose products overflow are refused, not wrapped. h's
// dimensions must be positive.
func PayloadBytes(h Header, limit int64) (size int64, ok bool) {
	elems := satAdd(satMul(int64(h.M), int64(h.K)), satMul(int64(h.K), int64(h.N)))
	if h.Beta != 0 {
		elems = satAdd(elems, satMul(int64(h.M), int64(h.N)))
	}
	size = satMul(elems, elemBytes(h.Precision))
	return size, size != math.MaxInt64 && size <= limit
}

// ResponseBytes bounds the body of a 200 answer to h: a header line no
// longer than MaxHeaderBytes, then the m×n C payload. It saturates like
// PayloadBytes.
func ResponseBytes(h Header) int64 {
	return satAdd(MaxHeaderBytes, satMul(satMul(int64(h.M), int64(h.N)), elemBytes(h.Precision)))
}

func elemBytes(precision string) int64 {
	if precision == "f64" {
		return 8
	}
	return 4
}

// satMul and satAdd are the product and sum of non-negative int64s,
// saturating at math.MaxInt64.
func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// readers pools the MaxHeaderBytes readers that wire bodies are read
// through, on both tiers.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, MaxHeaderBytes) }}

// AcquireReader returns a pooled MaxHeaderBytes reader over r. Hand it back
// with ReleaseReader once nothing read from it still aliases its buffer.
func AcquireReader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// ReleaseReader returns br to the pool, dropping its reference to the body
// it read.
func ReleaseReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

// chunkBytes sizes the pooled chunk the codecs stage an operand through: a
// small GEMM's operand crosses in one Write or one io.ReadFull.
const chunkBytes = 32 << 10

var chunks = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

// readF32s and readF64s decode the next n elements of r, staging them
// through one pooled chunk, the encoders' twin. A read of 4 KiB or more
// bypasses a bufio.Reader's own buffer, so a large operand's bytes are
// copied once before they are decoded.
func readF32s(r io.Reader, n int) ([]float32, error) {
	out := make([]float32, n)
	chunk := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(chunk)
	for v := out; len(v) > 0; {
		b := chunk[:4*min(len(v), chunkBytes/4)]
		if err := readChunk(r, b, len(v) < n); err != nil {
			return nil, err
		}
		v = v[getF32s(v, b):]
	}
	return out, nil
}

func readF64s(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, n)
	chunk := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(chunk)
	for v := out; len(v) > 0; {
		b := chunk[:8*min(len(v), chunkBytes/8)]
		if err := readChunk(r, b, len(v) < n); err != nil {
			return nil, err
		}
		v = v[getF64s(v, b):]
	}
	return out, nil
}

// readChunk fills b, one chunk of an operand, from r. A body that ends
// first is an error, reported as one io.ReadFull of the whole operand
// would: io.EOF only when it ends before the operand's first byte, that is
// before its first chunk (later is false).
func readChunk(r io.Reader, b []byte, later bool) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF && later {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("payload shorter than the header's dimensions imply: %w", err)
	}
	return nil
}

// EncodeRequest writes the wire form of a request: the header line followed
// by the operand payload. The client side of DecodeRequest, used by
// shalom-load and the tests.
func EncodeRequest(w io.Writer, h Header, a32, b32, c32 []float32, a64, b64, c64 []float64) error {
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	if h.Precision == "f64" {
		if err := writeF64s(w, a64); err != nil {
			return err
		}
		if err := writeF64s(w, b64); err != nil {
			return err
		}
		if h.Beta != 0 {
			return writeF64s(w, c64)
		}
		return nil
	}
	if err := writeF32s(w, a32); err != nil {
		return err
	}
	if err := writeF32s(w, b32); err != nil {
		return err
	}
	if h.Beta != 0 {
		return writeF32s(w, c32)
	}
	return nil
}

func writeF32s(w io.Writer, v []float32) error {
	chunk := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(chunk)
	for len(v) > 0 {
		n := putF32s(chunk[:], v[:min(len(v), chunkBytes/4)])
		if _, err := w.Write(chunk[:n]); err != nil {
			return err
		}
		v = v[n/4:]
	}
	return nil
}

func writeF64s(w io.Writer, v []float64) error {
	chunk := chunks.Get().(*[chunkBytes]byte)
	defer chunks.Put(chunk)
	for len(v) > 0 {
		n := putF64s(chunk[:], v[:min(len(v), chunkBytes/8)])
		if _, err := w.Write(chunk[:n]); err != nil {
			return err
		}
		v = v[n/8:]
	}
	return nil
}

// putF32s and putF64s write v's little-endian wire bytes to the start of b
// and return how many they wrote; getF32s and getF64s decode b's into the
// start of v and return how many elements they decoded.
func putF32s(b []byte, v []float32) int {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return 4 * len(v)
}

func putF64s(b []byte, v []float64) int {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return 8 * len(v)
}

func getF32s(v []float32, b []byte) int {
	v = v[:len(b)/4]
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return len(v)
}

func getF64s(v []float64, b []byte) int {
	v = v[:len(b)/8]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return len(v)
}

// DecodeResponse reads a 200 response: the header line and the m×n C
// payload in the request's precision.
func DecodeResponse(r io.Reader, m, n int, f64 bool) (ResponseHeader, []float32, []float64, error) {
	var rh ResponseHeader
	br := AcquireReader(r)
	defer ReleaseReader(br)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return rh, nil, nil, fmt.Errorf("server: reading response header: %w", err)
	}
	if err := json.Unmarshal(line, &rh); err != nil {
		return rh, nil, nil, fmt.Errorf("server: malformed response header: %w", err)
	}
	if f64 {
		c, err := readF64s(br, m*n)
		return rh, nil, c, err
	}
	c, err := readF32s(br, m*n)
	return rh, c, nil, err
}
