package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"libshalom"
	"libshalom/internal/kernels"
	"libshalom/internal/server"
	"libshalom/internal/workloads"
)

// spec names one distinct GEMM of a workload mix.
type spec struct {
	f64     bool
	mode    libshalom.Mode
	m, n, k int
}

func (s spec) prec() string {
	if s.f64 {
		return "f64"
	}
	return "f32"
}

func (s spec) elemBytes() int {
	if s.f64 {
		return 8
	}
	return 4
}

func (s spec) String() string {
	return fmt.Sprintf("%s %s %dx%dx%d", s.prec(), s.mode, s.m, s.n, s.k)
}

func (s spec) flops() float64 { return 2 * float64(s.m) * float64(s.n) * float64(s.k) }

// smallMix is the §7.2 small-GEMM mix: f32 NN and NT over M=N=K 8…120 in
// steps of 8, plus f64 NN over the five CP2K block shapes.
func smallMix() []spec {
	var out []spec
	for s := 8; s <= 120; s += 8 {
		out = append(out,
			spec{mode: libshalom.NN, m: s, n: s, k: s},
			spec{mode: libshalom.NT, m: s, n: s, k: s})
	}
	for _, s := range workloads.CP2K() {
		out = append(out, spec{f64: true, mode: libshalom.NN, m: s.M, n: s.N, k: s.K})
	}
	return out
}

// irregularMix is the Fig 9/13-style mix: one small dimension M against
// large N and K, in NN and NT.
func irregularMix() []spec {
	var out []spec
	for _, m := range []int{32, 64} {
		for _, n := range []int{2048, 4096} {
			for _, k := range []int{512, 576} {
				for _, mode := range []libshalom.Mode{libshalom.NN, libshalom.NT} {
					out = append(out, spec{mode: mode, m: m, n: n, k: k})
				}
			}
		}
	}
	return out
}

// tinyMix is the mix `shalom-load -mix tiny` sends: f32 NN 8³, 12³ and 16³.
func tinyMix() []spec {
	var out []spec
	for _, s := range []int{8, 12, 16} {
		out = append(out, spec{mode: libshalom.NN, m: s, n: s, k: s})
	}
	return out
}

// op is one distinct GEMM with everything set-up prepares for it: stored
// operands, the reference result, the per-element error bound, an output
// buffer for library calls and, for served workloads, the encoded request.
type op struct {
	spec
	alpha    float64
	lda, ldb int

	a32, b32, ref32, c32 []float32
	a64, b64, ref64, c64 []float64
	// bound is the componentwise forward-error bound each element of C must
	// meet against the reference: 2·γ_{K+2}·|α|·(|A||B|)_ij, covering the
	// rounding error of both the computed and the reference result.
	bound []float64
	body  []byte
}

// logical holds the values shared by the NN and NT ops of one shape: the
// same logical A and B, stored differently, have one reference and bound.
type logical struct {
	alpha float64
	a, b  []float64 // A m×k and B k×n, row-major, already rounded to the op's precision
	ref32 []float32
	ref64 []float64
	bound []float64
}

// buildOps generates a workload's distinct ops from the seed alone:
// operand values, α, references and bounds. wire also encodes each op's
// request body.
func buildOps(specs []spec, seed uint64, wire bool) ([]*op, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	type key struct {
		f64     bool
		m, n, k int
	}
	shared := map[key]*logical{}
	ops := make([]*op, 0, len(specs))
	for _, s := range specs {
		kk := key{s.f64, s.m, s.n, s.k}
		lg := shared[kk]
		if lg == nil {
			lg = newLogical(s, rng)
			shared[kk] = lg
		}
		o := &op{spec: s, alpha: lg.alpha, lda: s.k, ldb: s.n, bound: lg.bound}
		b := lg.b
		if s.mode.TransB() {
			b, o.ldb = transpose(lg.b, s.k, s.n), s.k
		}
		if s.f64 {
			o.a64, o.b64, o.ref64 = lg.a, b, lg.ref64
			o.c64 = make([]float64, s.m*s.n)
		} else {
			o.a32, o.b32, o.ref32 = toF32(lg.a), toF32(b), lg.ref32
			o.c32 = make([]float32, s.m*s.n)
		}
		if wire {
			body, err := o.encode()
			if err != nil {
				return nil, err
			}
			o.body = body
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// newLogical draws one shape's values and computes its reference with the
// library's portable reference kernel, plus the error bound
// 2·γ_{K+2}·|α|·(|A||B|)_ij.
func newLogical(s spec, rng *rand.Rand) *logical {
	round := func(v float64) float64 {
		if s.f64 {
			return v
		}
		return float64(float32(v))
	}
	lg := &logical{alpha: round(0.5 + rng.Float64())}
	lg.a = make([]float64, s.m*s.k)
	for i := range lg.a {
		lg.a[i] = round(2*rng.Float64() - 1)
	}
	lg.b = make([]float64, s.k*s.n)
	for i := range lg.b {
		lg.b[i] = round(2*rng.Float64() - 1)
	}
	unit := 0x1p-24
	if s.f64 {
		unit = 0x1p-53
	}
	nu := float64(s.k+2) * unit
	scale := 2 * nu / (1 - nu) * math.Abs(lg.alpha)
	lg.bound = make([]float64, s.m*s.n)
	absB := make([]float64, len(lg.b))
	for i, v := range lg.b {
		absB[i] = math.Abs(v)
	}
	// The reference reads B transposed (N×K), so its inner product walks
	// both operands contiguously: the reference kernel is the slowest part
	// of set-up for large shapes. Row blocks of the reference and the bound
	// are independent and spread over the cores.
	bT := transpose(lg.b, s.k, s.n)
	var a32, bT32 []float32
	if s.f64 {
		lg.ref64 = make([]float64, s.m*s.n)
	} else {
		lg.ref32 = make([]float32, s.m*s.n)
		a32, bT32 = toF32(lg.a), toF32(bT)
	}
	parallelRows(s.m, func(i0, i1 int) {
		if s.f64 {
			kernels.DGEMMRef(false, true, i1-i0, s.n, s.k, lg.alpha, lg.a[i0*s.k:], s.k, bT, s.k, 0, lg.ref64[i0*s.n:], s.n)
		} else {
			kernels.SGEMMRef(false, true, i1-i0, s.n, s.k, float32(lg.alpha), a32[i0*s.k:], s.k, bT32, s.k, 0, lg.ref32[i0*s.n:], s.n)
		}
		for i := i0; i < i1; i++ {
			row := lg.bound[i*s.n : (i+1)*s.n]
			for p := 0; p < s.k; p++ {
				av := math.Abs(lg.a[i*s.k+p])
				for j, bv := range absB[p*s.n : (p+1)*s.n] {
					row[j] += av * bv
				}
			}
			for j := range row {
				row[j] *= scale
			}
		}
	})
	return lg
}

// parallelRows calls fn on contiguous row ranges covering [0, m), one per
// core, and waits for all of them.
func parallelRows(m int, fn func(i0, i1 int)) {
	parts := min(runtime.NumCPU(), m)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(p*m/parts, (p+1)*m/parts)
	}
	wg.Wait()
}

func transpose(b []float64, rows, cols int) []float64 {
	out := make([]float64, len(b))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = b[i*cols+j]
		}
	}
	return out
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// header is the op's wire request header.
func (o *op) header() server.Header {
	return server.Header{
		Precision: o.prec(), Mode: o.mode.String(),
		M: o.m, N: o.n, K: o.k, Alpha: o.alpha,
	}
}

// encode returns the op's wire request body.
func (o *op) encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := server.EncodeRequest(&buf, o.header(), o.a32, o.b32, nil, o.a64, o.b64, nil); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", o.spec, err)
	}
	return buf.Bytes(), nil
}

// call runs the op through a library context into its output buffer, after
// poisoning that buffer so a call that writes nothing cannot pass the check.
func (o *op) call(ctx *libshalom.Context) error {
	if o.f64 {
		return ctx.DGEMM(o.mode, o.m, o.n, o.k, o.alpha, o.a64, o.lda, o.b64, o.ldb, 0, o.c64, o.n)
	}
	return ctx.SGEMM(o.mode, o.m, o.n, o.k, float32(o.alpha), o.a32, o.lda, o.b32, o.ldb, 0, o.c32, o.n)
}

func (o *op) poison() {
	nan := math.NaN()
	for i := range o.c64 {
		o.c64[i] = nan
	}
	for i := range o.c32 {
		o.c32[i] = float32(nan)
	}
}

// correct checks a result against the op's reference within its bound; NaN
// fails.
func (o *op) correct(c32 []float32, c64 []float64) bool {
	if o.f64 {
		if len(c64) != len(o.ref64) {
			return false
		}
		for i, want := range o.ref64 {
			if !(math.Abs(c64[i]-want) <= o.bound[i]) {
				return false
			}
		}
		return true
	}
	if len(c32) != len(o.ref32) {
		return false
	}
	for i, want := range o.ref32 {
		if !(math.Abs(float64(c32[i])-float64(want)) <= o.bound[i]) {
			return false
		}
	}
	return true
}

// sequence yields one client's op indices: rounds of seeded permutations of
// the distinct ops, so each round covers the mix exactly once. The seed
// and the client index alone fix the order.
type sequence struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newSequence(seed uint64, client, n int) *sequence {
	s := &sequence{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), perm: make([]int, n)}
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = n
	return s
}

func (s *sequence) next() int {
	if s.pos == len(s.perm) {
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	v := s.perm[s.pos]
	s.pos++
	return v
}
