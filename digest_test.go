//go:build amd64 && !amd64.v3

// The digest pins exact output bits, so it runs only where the compiler
// never fuses x*y+z into one FMA: arm64 and GOAMD64=v3 builds may fuse,
// which moves the last bits of every accumulation.

package libshalom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"libshalom/internal/baselines"
	"libshalom/internal/mat"
)

// wantOutputDigest is the SHA-256 of every output bit TestOutputDigest
// produces. A change that keeps each C element's k order keeps it.
const wantOutputDigest = "0f20143340e05459dab56fb08faa89406ce4d141a33fa80249714e18ad21231f"

// TestOutputDigest hashes the output bits of a fixed, seeded set of calls:
// both precisions, NN/NT/TN/TT, α ∈ {1, −0.75, 0} × β ∈ {0, 1, 0.5}, dense
// and padded strides, edge tiles, m > mc, n > nc, k > kc with an NN B over
// the L1 (so both the in-place and the packing paths run), widths 1 and 2,
// one batch per precision and every baseline library. The whole C buffer,
// padding included, goes into the hash.
func TestOutputDigest(t *testing.T) {
	ResetDegradations()
	defer ResetDegradations()
	h := sha256.New()
	hashBits := func(c any) {
		if err := binary.Write(h, binary.LittleEndian, c); err != nil {
			t.Fatal(err)
		}
	}
	rng := mat.NewRNG(24)
	// 7×12 and 14×6 hit the FP32 and FP64 fixed-shape kernels; 20×40×440
	// has k above both kc (431, 315) and an NN B over Kunpeng 920's 64 KiB
	// L1; 150 rows exceed both mc (147, 98) and 310 columns both nc (300,
	// 204). 64³ and 20×40×440 fork at width 2.
	shapes := [][3]int{
		{1, 1, 1}, {8, 8, 8}, {7, 12, 16}, {14, 6, 9}, {13, 29, 7},
		{20, 40, 440}, {64, 64, 64}, {150, 9, 20}, {5, 310, 12},
	}
	type ab struct{ alpha, beta float64 }
	var abs []ab
	for _, alpha := range []float64{1, -0.75, 0} {
		for _, beta := range []float64{0, 1, 0.5} {
			abs = append(abs, ab{alpha, beta})
		}
	}
	ctxs := []*Context{New(WithThreads(1)), New(WithThreads(2))}
	defer ctxs[1].Close()
	modes := []Mode{NN, NT, TN, TT}

	calls := 0
	for _, mode := range modes {
		for si, s := range shapes {
			for ai, x := range abs {
				ctx, pad := ctxs[(si+ai)%2], 3*(ai%2)
				m, n, k := s[0], s[1], s[2]
				a32, lda, b32, ldb, c32, ldc := digestOperands[float32](rng, mode, m, n, k, pad)
				if err := ctx.SGEMM(mode, m, n, k, float32(x.alpha), a32, lda, b32, ldb, float32(x.beta), c32, ldc); err != nil {
					t.Fatalf("SGEMM %v %v: %v", mode, s, err)
				}
				hashBits(c32)
				a64, lda, b64, ldb, c64, ldc := digestOperands[float64](rng, mode, m, n, k, pad)
				if err := ctx.DGEMM(mode, m, n, k, x.alpha, a64, lda, b64, ldb, x.beta, c64, ldc); err != nil {
					t.Fatalf("DGEMM %v %v: %v", mode, s, err)
				}
				hashBits(c64)
				calls += 2
			}
		}
	}

	// One batch per precision, wide enough in summed work to run pooled at
	// width 2.
	for _, mode := range []Mode{NN, NT} {
		var sb []SBatchEntry
		var db []DBatchEntry
		for i := 0; i < 8; i++ {
			m, n, k := 24+i, 32-i, 40+3*i
			x := abs[i%len(abs)]
			a32, lda, b32, ldb, c32, ldc := digestOperands[float32](rng, mode, m, n, k, i%2)
			sb = append(sb, SBatchEntry{M: m, N: n, K: k, Alpha: float32(x.alpha), A: a32, LDA: lda, B: b32, LDB: ldb, Beta: float32(x.beta), C: c32, LDC: ldc})
			a64, lda, b64, ldb, c64, ldc := digestOperands[float64](rng, mode, m, n, k, i%2)
			db = append(db, DBatchEntry{M: m, N: n, K: k, Alpha: x.alpha, A: a64, LDA: lda, B: b64, LDB: ldb, Beta: x.beta, C: c64, LDC: ldc})
		}
		if err := ctxs[1].SGEMMBatch(mode, sb); err != nil {
			t.Fatalf("SGEMMBatch %v: %v", mode, err)
		}
		if err := ctxs[1].DGEMMBatch(mode, db); err != nil {
			t.Fatalf("DGEMMBatch %v: %v", mode, err)
		}
		for i := range sb {
			hashBits(sb[i].C)
			hashBits(db[i].C)
		}
		calls += 2
	}

	// Every baseline: the LIBXSMM direct path (13×29×7), BLIS's padded edge
	// tiles and the packed Goto nest with k above kc, serial and split.
	for _, lib := range baselines.All() {
		for _, mode := range modes {
			for si, s := range [][3]int{{13, 29, 7}, {20, 40, 440}, {33, 17, 70}} {
				x := abs[(si*4+int(lib))%len(abs)]
				threads, pad := 1+si%2, 3*(int(lib)%2)
				m, n, k := s[0], s[1], s[2]
				a32, lda, b32, ldb, c32, ldc := digestOperands[float32](rng, mode, m, n, k, pad)
				if err := baselines.SGEMM(lib, nil, threads, mode, m, n, k, float32(x.alpha), a32, lda, b32, ldb, float32(x.beta), c32, ldc); err != nil {
					t.Fatalf("%v SGEMM %v %v: %v", lib, mode, s, err)
				}
				hashBits(c32)
				a64, lda, b64, ldb, c64, ldc := digestOperands[float64](rng, mode, m, n, k, pad)
				if err := baselines.DGEMM(lib, nil, threads, mode, m, n, k, x.alpha, a64, lda, b64, ldb, x.beta, c64, ldc); err != nil {
					t.Fatalf("%v DGEMM %v %v: %v", lib, mode, s, err)
				}
				hashBits(c64)
				calls += 2
			}
		}
	}

	if !Health().Healthy() {
		t.Fatalf("a breaker tripped during the digest run, so some calls ran the reference path: %+v", Health().Breakers)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d calls, digest %s", calls, got)
	if got != wantOutputDigest {
		t.Fatalf("output digest %s, want %s: some call's output bits changed", got, wantOutputDigest)
	}
}

// digestOperands draws op(A) m×k, op(B) k×n and C m×n as stored for mode,
// each row padded by pad elements, with values in [-0.5, 0.5).
func digestOperands[T float32 | float64](rng *mat.RNG, mode Mode, m, n, k, pad int) (a []T, lda int, b []T, ldb int, c []T, ldc int) {
	arows, acols := m, k
	if mode.TransA() {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if mode.TransB() {
		brows, bcols = n, k
	}
	fill := func(rows, cols int) ([]T, int) {
		ld := cols + pad
		s := make([]T, rows*ld)
		for i := range s {
			s[i] = T(rng.Float64() - 0.5)
		}
		return s, ld
	}
	a, lda = fill(arows, acols)
	b, ldb = fill(brows, bcols)
	c, ldc = fill(m, n)
	return a, lda, b, ldb, c, ldc
}
