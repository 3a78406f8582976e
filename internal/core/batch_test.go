package core

import (
	"errors"
	"testing"
	"testing/quick"

	"libshalom/internal/mat"
)

func makeBatch(t *testing.T, rng *mat.RNG, count int, mode Mode) ([]BatchEntry[float32], []*mat.F32) {
	t.Helper()
	batch := make([]BatchEntry[float32], count)
	wants := make([]*mat.F32, count)
	for i := range batch {
		m, n, k := rng.Intn(30)+1, rng.Intn(30)+1, rng.Intn(30)+1
		la := mat.RandomF32(m, k, rng)
		lb := mat.RandomF32(k, n, rng)
		a, b := la, lb
		ta, tb := mat.NoTrans, mat.NoTrans
		if mode.TransA() {
			a, ta = la.Transpose(), mat.Transpose
		}
		if mode.TransB() {
			b, tb = lb.Transpose(), mat.Transpose
		}
		c := mat.RandomF32(m, n, rng)
		want := c.Clone()
		mat.RefGEMMF32(ta, tb, 1.5, a, b, 0.5, want)
		wants[i] = want
		batch[i] = BatchEntry[float32]{
			M: m, N: n, K: k, Alpha: 1.5,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride,
			Beta: 0.5, C: c.Data, LDC: c.Stride,
		}
	}
	return batch, wants
}

func checkBatch(t *testing.T, batch []BatchEntry[float32], wants []*mat.F32) {
	t.Helper()
	for i, e := range batch {
		got := &mat.F32{Rows: e.M, Cols: e.N, Stride: e.LDC, Data: e.C}
		if !got.Equal(wants[i], 1e-3) {
			t.Fatalf("batch entry %d wrong (max diff %g)", i, got.MaxDiff(wants[i]))
		}
	}
}

func TestBatchSerial(t *testing.T) {
	rng := mat.NewRNG(1)
	for _, mode := range Modes() {
		batch, wants := makeBatch(t, rng, 17, mode)
		if err := SGEMMBatch(testDriver(t, Config{Threads: 1}), mode, batch); err != nil {
			t.Fatal(err)
		}
		checkBatch(t, batch, wants)
	}
}

func TestBatchParallelMatchesSerial(t *testing.T) {
	rng := mat.NewRNG(2)
	// 256 entries of up to 30³: enough summed work for the batch to fork.
	batch, wants := makeBatch(t, rng, 256, NN)
	if err := SGEMMBatch(testDriver(t, Config{Threads: 8}), NN, batch); err != nil {
		t.Fatal(err)
	}
	checkBatch(t, batch, wants)
}

func TestBatchProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed) + 31)
		mode := Modes()[rng.Intn(4)]
		threads := []int{1, 2, 5}[rng.Intn(3)]
		count := rng.Intn(12) + 1
		batch := make([]BatchEntry[float32], count)
		wants := make([]*mat.F32, count)
		for i := range batch {
			m, n, k := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1
			la := mat.RandomF32(m, k, rng)
			lb := mat.RandomF32(k, n, rng)
			a, b := la, lb
			ta, tb := mat.NoTrans, mat.NoTrans
			if mode.TransA() {
				a, ta = la.Transpose(), mat.Transpose
			}
			if mode.TransB() {
				b, tb = lb.Transpose(), mat.Transpose
			}
			c := mat.RandomF32(m, n, rng)
			want := c.Clone()
			mat.RefGEMMF32(ta, tb, 2, a, b, -1, want)
			wants[i] = want
			batch[i] = BatchEntry[float32]{M: m, N: n, K: k, Alpha: 2,
				A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride, Beta: -1, C: c.Data, LDC: c.Stride}
		}
		if err := SGEMMBatch(testDriver(t, Config{Threads: threads}), mode, batch); err != nil {
			return false
		}
		for i, e := range batch {
			got := &mat.F32{Rows: e.M, Cols: e.N, Stride: e.LDC, Data: e.C}
			if !got.Equal(wants[i], 1e-2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchDGEMM(t *testing.T) {
	rng := mat.NewRNG(3)
	count := 9
	batch := make([]BatchEntry[float64], count)
	wants := make([]*mat.F64, count)
	for i := range batch {
		m := rng.Intn(23) + 1
		a := mat.RandomF64(m, m, rng)
		b := mat.RandomF64(m, m, rng)
		c := mat.NewF64(m, m)
		want := mat.NewF64(m, m)
		mat.RefGEMMF64(mat.NoTrans, mat.NoTrans, 1, a, b, 0, want)
		wants[i] = want
		batch[i] = BatchEntry[float64]{M: m, N: m, K: m, Alpha: 1,
			A: a.Data, LDA: a.Stride, B: b.Data, LDB: b.Stride, Beta: 0, C: c.Data, LDC: c.Stride}
	}
	if err := DGEMMBatch(testDriver(t, Config{Threads: 4}), NN, batch); err != nil {
		t.Fatal(err)
	}
	for i, e := range batch {
		got := &mat.F64{Rows: e.M, Cols: e.N, Stride: e.LDC, Data: e.C}
		if !got.Equal(wants[i], 1e-10) {
			t.Fatalf("FP64 batch entry %d wrong", i)
		}
	}
}

func TestBatchValidationAtomic(t *testing.T) {
	rng := mat.NewRNG(4)
	good, _ := makeBatch(t, rng, 3, NN)
	before := append([]float32(nil), good[0].C...)
	bad := append(good, BatchEntry[float32]{M: 2, N: 2, K: 2, Alpha: 1, A: []float32{1}, LDA: 2, B: make([]float32, 4), LDB: 2, C: make([]float32, 4), LDC: 2})
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1}), NN, bad); err == nil {
		t.Fatal("malformed entry accepted")
	}
	for i := range before {
		if good[0].C[i] != before[i] {
			t.Fatal("validation failure must not run any entry")
		}
	}
}

func TestBatchEmptyAndDegenerate(t *testing.T) {
	if err := SGEMMBatch(testDriver(t, Config{Threads: 4}), NN, nil); err != nil {
		t.Fatal(err)
	}
	// alpha=0 and k=0 entries scale C.
	c := []float32{2, 2, 2, 2}
	batch := []BatchEntry[float32]{
		{M: 2, N: 2, K: 0, Alpha: 1, A: nil, LDA: 1, B: nil, LDB: 2, Beta: 0.5, C: c, LDC: 2},
	}
	if err := SGEMMBatch(testDriver(t, Config{Threads: 1}), NN, batch); err != nil {
		t.Fatal(err)
	}
	if c[0] != 1 {
		t.Fatal("k=0 entry not scaled")
	}
}

func TestCheckBatchAliasing(t *testing.T) {
	shared := make([]float32, 16)
	batch := []BatchEntry[float32]{
		{C: shared[:8]},
		{C: shared[4:12]},
	}
	if err := CheckBatchAliasing(batch); !errors.Is(err, ErrAliasedBatch) {
		t.Fatal("overlapping C extents not detected")
	}
	ok := []BatchEntry[float32]{
		{C: shared[:8]},
		{C: shared[8:]},
		{C: nil},
	}
	if err := CheckBatchAliasing(ok); err != nil {
		t.Fatalf("disjoint extents flagged: %v", err)
	}
}
