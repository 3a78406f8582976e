package kernels

import (
	"testing"
	"testing/quick"

	"libshalom/internal/isa"
	"libshalom/internal/mat"
	"libshalom/internal/vexec"
)

// TestFuzzMainSpecs drives BuildMain through random feasible specs and, for
// each, (a) runs the static analyzer's kernel invariants and (b) executes
// the program functionally against the Go micro-kernel.
func TestFuzzMainSpecs(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed) + 12345)
		elem := []int{4, 8}[rng.Intn(2)]
		lanes := 16 / elem
		// Random feasible tile.
		var mr, nr int
		for {
			mr = rng.Intn(10) + 1
			nr = (rng.Intn(4) + 1) * lanes
			nb := nr / lanes
			if mr+nb+mr*nb <= 32 {
				break
			}
		}
		kc := (rng.Intn(6) + 1) * lanes
		lda := kc + rng.Intn(8)
		ldb := nr + rng.Intn(8)
		ldc := nr + rng.Intn(8)
		spec := MainSpec{
			Elem: elem, MR: mr, NR: nr, KC: kc,
			LDA: lda, LDB: ldb, LDC: ldc,
			Accumulate: rng.Intn(2) == 0,
			PackB:      rng.Intn(2) == 0,
			Schedule:   Schedule(rng.Intn(2)),
		}
		p := BuildMain(spec)
		rep, err := isa.Analyze(p)
		if err != nil {
			t.Logf("spec %+v: analyze: %v", spec, err)
			return false
		}
		// The pipelined tail may reload up to mr + nr/lanes registers that
		// the truncated final iteration never consumes.
		budget := mr + nr/lanes
		if err := rep.CheckKernelInvariants(budget); err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}

		// Functional check against the Go kernel.
		if elem == 4 {
			a := fillRand32((mr-1)*lda+kc, rng)
			b := fillRand32((kc-1)*ldb+nr, rng)
			c := fillRand32((mr-1)*ldc+nr, rng)
			cISA := append([]float32(nil), c...)
			streams := [][]float32{a, b, cISA}
			if spec.PackB {
				streams = append(streams, make([]float32, kc*nr))
			}
			m, err := vexec.NewMachine(p, streams, nil)
			if err != nil {
				t.Logf("spec %+v: bind: %v", spec, err)
				return false
			}
			m.Run()
			beta := float32(0)
			if spec.Accumulate {
				beta = 1
			}
			SGEMMMicro(mr, nr, kc, 1, a, lda, b, ldb, beta, c, ldc)
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					d := cISA[i*ldc+j] - c[i*ldc+j]
					if d > 1e-3 || d < -1e-3 {
						t.Logf("spec %+v: C(%d,%d) diff %g", spec, i, j, d)
						return false
					}
				}
			}
		} else {
			a := fillRand64((mr-1)*lda+kc, rng)
			b := fillRand64((kc-1)*ldb+nr, rng)
			c := fillRand64((mr-1)*ldc+nr, rng)
			cISA := append([]float64(nil), c...)
			streams := [][]float64{a, b, cISA}
			if spec.PackB {
				streams = append(streams, make([]float64, kc*nr))
			}
			m, err := vexec.NewMachine(p, nil, streams)
			if err != nil {
				return false
			}
			m.Run()
			beta := float64(0)
			if spec.Accumulate {
				beta = 1
			}
			DGEMMMicro(mr, nr, kc, 1, a, lda, b, ldb, beta, c, ldc)
			for i := 0; i < mr; i++ {
				for j := 0; j < nr; j++ {
					d := cISA[i*ldc+j] - c[i*ldc+j]
					if d > 1e-12 || d < -1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzNTPackSpecs drives BuildNTPack through random feasible specs with
// the same analyzer + functional checks.
func TestFuzzNTPackSpecs(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mat.NewRNG(uint64(seed)*7 + 99)
		elem := []int{4, 8}[rng.Intn(2)]
		lanes := 16 / elem
		var mr, nb int
		for {
			mr = rng.Intn(8) + 1
			nb = rng.Intn(3) + 1
			if mr+nb+mr*nb <= 31 {
				break
			}
		}
		kc := (rng.Intn(4) + 1) * lanes
		groups := rng.Intn(3) + 1
		nrTotal := nb * groups
		jOff := nb * rng.Intn(groups)
		spec := NTPackSpec{
			Elem: elem, MR: mr, NB: nb, KC: kc,
			LDA: kc + rng.Intn(4), LDBT: kc + rng.Intn(4), LDC: nrTotal + rng.Intn(4),
			NRTotal: nrTotal, JOff: jOff, Accum: rng.Intn(2) == 0,
		}
		p := BuildNTPack(spec)
		rep, err := isa.Analyze(p)
		if err != nil {
			return false
		}
		if err := rep.CheckKernelInvariants(0); err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}
		if elem != 4 {
			return true // functional FP64 parity is covered in isa_test.go
		}
		a := fillRand32((mr-1)*spec.LDA+kc, rng)
		bT := fillRand32((nb-1)*spec.LDBT+kc, rng)
		c := fillRand32((mr-1)*spec.LDC+jOff+nb, rng)
		cISA := append([]float32(nil), c...)
		bc := make([]float32, (kc-1)*nrTotal+jOff+nb)
		bcGo := make([]float32, nb*kc)
		if err := vexec.RunF32(p, a, bT, cISA, bc); err != nil {
			return false
		}
		beta := float32(0)
		if spec.Accum {
			beta = 1
		}
		PackPanelNT(kc, nb, bT, spec.LDBT, bcGo)
		MicroPacked(mr, nb, kc, 1, a, spec.LDA, bcGo, beta, c[jOff:], spec.LDC)
		for i := 0; i < mr; i++ {
			for j := 0; j < nb; j++ {
				d := cISA[i*spec.LDC+jOff+j] - c[jOff+i*spec.LDC+j]
				if d > 1e-3 || d < -1e-3 {
					return false
				}
			}
		}
		for k := 0; k < kc; k++ {
			for j := 0; j < nb; j++ {
				// The ISA scatters the sliver row-major into the NEON
				// kernel's Bc; the host panel keeps it in k-contiguous columns.
				if bc[k*nrTotal+jOff+j] != bT[j*spec.LDBT+k] || bcGo[j*kc+k] != bT[j*spec.LDBT+k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzerOnEdgeKernels applies the invariants to both Fig 6 variants.
func TestAnalyzerOnEdgeKernels(t *testing.T) {
	for _, sched := range []Schedule{Batch, Pipelined} {
		p := BuildEdge8x4(EdgeSpec{Elem: 4, KC: 16, LDAp: 8, LDB: 4, LDC: 4, Schedule: sched})
		rep, err := isa.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		// The pipelined variant's final double-buffer reloads are dead.
		if err := rep.CheckKernelInvariants(4); err != nil {
			t.Fatalf("%v edge kernel: %v", sched, err)
		}
		if rep.PeakLive > 32 {
			t.Fatalf("%v edge kernel peak live %d", sched, rep.PeakLive)
		}
	}
}
