package kernels

import (
	"testing"

	"libshalom/internal/isa"
	"libshalom/internal/mat"
	"libshalom/internal/platform"
	"libshalom/internal/uarch"
	"libshalom/internal/vexec"
)

func defaultCfg() uarch.Config {
	return uarch.Config{
		IssueWidth: 4, FMAPipes: 1, LoadPipes: 2, StorePipes: 1,
		Window: 16, FMALatency: 7, LoadLatency: 4, StoreLatency: 1, MiscLatency: 3,
	}
}

// runMain executes a BuildMain program functionally and compares against the
// Go micro-kernel on the same operands.
func runMainAndCompare(t *testing.T, spec MainSpec) {
	t.Helper()
	p := BuildMain(spec)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(uint64(spec.MR*100 + spec.NR))
	if spec.Elem == 4 {
		a := fillRand32((spec.MR-1)*spec.LDA+spec.KC, rng)
		b := fillRand32((spec.KC-1)*spec.LDB+spec.NR, rng)
		c := fillRand32((spec.MR-1)*spec.LDC+spec.NR, rng)
		cISA := append([]float32(nil), c...)
		bc := make([]float32, spec.KC*spec.NR)
		streams := [][]float32{a, b, cISA}
		if spec.PackB {
			streams = append(streams, bc)
		}
		m, err := vexec.NewMachine(p, streams, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		beta := float32(0)
		if spec.Accumulate {
			beta = 1
		}
		SGEMMMicro(spec.MR, spec.NR, spec.KC, 1, a, spec.LDA, b, spec.LDB, beta, c, spec.LDC)
		for i := 0; i < spec.MR; i++ {
			for j := 0; j < spec.NR; j++ {
				got, want := cISA[i*spec.LDC+j], c[i*spec.LDC+j]
				d := got - want
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("%s: C(%d,%d) ISA %v vs Go %v", p.Name, i, j, got, want)
				}
			}
		}
		if spec.PackB {
			for k := 0; k < spec.KC; k++ {
				for j := 0; j < spec.NR; j++ {
					if bc[k*spec.NR+j] != b[k*spec.LDB+j] {
						t.Fatalf("%s: Bc(%d,%d) not packed", p.Name, k, j)
					}
				}
			}
		}
	} else {
		a := fillRand64((spec.MR-1)*spec.LDA+spec.KC, rng)
		b := fillRand64((spec.KC-1)*spec.LDB+spec.NR, rng)
		c := fillRand64((spec.MR-1)*spec.LDC+spec.NR, rng)
		cISA := append([]float64(nil), c...)
		streams := [][]float64{a, b, cISA}
		bc := make([]float64, spec.KC*spec.NR)
		if spec.PackB {
			streams = append(streams, bc)
		}
		m, err := vexec.NewMachine(p, nil, streams)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		beta := float64(0)
		if spec.Accumulate {
			beta = 1
		}
		DGEMMMicro(spec.MR, spec.NR, spec.KC, 1, a, spec.LDA, b, spec.LDB, beta, c, spec.LDC)
		for i := 0; i < spec.MR; i++ {
			for j := 0; j < spec.NR; j++ {
				d := cISA[i*spec.LDC+j] - c[i*spec.LDC+j]
				if d > 1e-12 || d < -1e-12 {
					t.Fatalf("%s: FP64 C(%d,%d) mismatch", p.Name, i, j)
				}
			}
		}
	}
}

func TestMainISAAgainstGo(t *testing.T) {
	for _, spec := range []MainSpec{
		{Elem: 4, MR: 7, NR: 12, KC: 16, LDA: 16, LDB: 12, LDC: 12},
		{Elem: 4, MR: 7, NR: 12, KC: 8, LDA: 24, LDB: 40, LDC: 20, Accumulate: true},
		{Elem: 4, MR: 7, NR: 12, KC: 8, LDA: 8, LDB: 40, LDC: 12, PackB: true},
		{Elem: 4, MR: 7, NR: 12, KC: 8, LDA: 8, LDB: 40, LDC: 12, PackB: true, Schedule: Batch},
		{Elem: 4, MR: 8, NR: 4, KC: 12, LDA: 12, LDB: 4, LDC: 4},
		{Elem: 4, MR: 4, NR: 16, KC: 8, LDA: 8, LDB: 16, LDC: 16, Schedule: Batch},
		{Elem: 8, MR: 7, NR: 6, KC: 8, LDA: 8, LDB: 6, LDC: 6},
		{Elem: 8, MR: 7, NR: 6, KC: 6, LDA: 10, LDB: 9, LDC: 7, Accumulate: true, Schedule: Batch},
		{Elem: 8, MR: 4, NR: 4, KC: 4, LDA: 4, LDB: 4, LDC: 4, PackB: true},
	} {
		runMainAndCompare(t, spec)
	}
}

func TestMainCMRMatchesEq2(t *testing.T) {
	// Steady-state instruction mix of the 7×12 kernel: per j=4 k-steps,
	// mr+nr = 19 loads and mr*nr = 84 by-element FMAs (Eq. 2 counts 2 flops
	// per FMA: CMR = 2*84/19 per 4 steps ≡ 2*7*12/(7+12)).
	kc := 32
	p := BuildMain(MainSpec{Elem: 4, MR: 7, NR: 12, KC: kc, LDA: kc, LDB: 12, LDC: 12})
	c := p.Count()
	iters := kc / 4
	wantLoads := 19*iters + 0 // prologue A+B loads are part of the first iteration's 19
	if c.Loads != wantLoads {
		t.Fatalf("loads = %d, want %d", c.Loads, wantLoads)
	}
	if c.FMAs != 84*iters {
		t.Fatalf("FMAs = %d, want %d", c.FMAs, 84*iters)
	}
	// Eq. 2 in flops per element: 2*84/19 per unrolled block.
	gotCMR := 2 * float64(c.FMAs) / float64(c.Loads)
	wantCMR := 2 * 7.0 * 12.0 / 19.0
	if diff := gotCMR - wantCMR; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("CMR = %v, want %v", gotCMR, wantCMR)
	}
}

func TestMainRegisterBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("8x16 FP32 (needs 8+4+32 regs) accepted")
		}
	}()
	BuildMain(MainSpec{Elem: 4, MR: 8, NR: 16, KC: 4, LDA: 4, LDB: 16, LDC: 16})
}

func TestMainRejectsUnalignedKC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KC not multiple of lanes accepted")
		}
	}()
	BuildMain(MainSpec{Elem: 4, MR: 7, NR: 12, KC: 6, LDA: 6, LDB: 12, LDC: 12})
}

func TestNTPackISAAgainstGo(t *testing.T) {
	for _, spec := range []NTPackSpec{
		{Elem: 4, MR: 7, NB: 3, KC: 8, LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12, JOff: 0},
		{Elem: 4, MR: 7, NB: 3, KC: 8, LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12, JOff: 9},
		{Elem: 4, MR: 7, NB: 3, KC: 8, LDA: 12, LDBT: 10, LDC: 16, NRTotal: 12, JOff: 3, Accum: true},
		{Elem: 4, MR: 2, NB: 3, KC: 8, LDA: 8, LDBT: 8, LDC: 3, NRTotal: 3, JOff: 0}, // MR < lanes exercises the scatter tail
		{Elem: 8, MR: 7, NB: 3, KC: 6, LDA: 6, LDBT: 6, LDC: 6, NRTotal: 6, JOff: 3},
	} {
		p := BuildNTPack(spec)
		rng := mat.NewRNG(uint64(spec.JOff + 77))
		if spec.Elem == 4 {
			a := fillRand32((spec.MR-1)*spec.LDA+spec.KC, rng)
			bT := fillRand32((spec.NB-1)*spec.LDBT+spec.KC, rng)
			c := fillRand32((spec.MR-1)*spec.LDC+spec.JOff+spec.NB, rng)
			cISA := append([]float32(nil), c...)
			bc := make([]float32, spec.NB*spec.KC)
			bcISA := make([]float32, (spec.KC-1)*spec.NRTotal+spec.JOff+spec.NB)
			if err := vexec.RunF32(p, a, bT, cISA, bcISA); err != nil {
				t.Fatal(err)
			}
			beta := float32(0)
			if spec.Accum {
				beta = 1
			}
			// Go counterpart, the host's NT panel copy and the kernel on
			// it: C written at column offset JOff.
			PackPanelNT(spec.KC, spec.NB, bT, spec.LDBT, bc)
			MicroPacked(spec.MR, spec.NB, spec.KC, 1, a, spec.LDA, bc, beta, c[spec.JOff:], spec.LDC)
			for i := 0; i < spec.MR; i++ {
				for j := 0; j < spec.NB; j++ {
					got := cISA[i*spec.LDC+spec.JOff+j]
					want := c[spec.JOff+i*spec.LDC+j]
					d := got - want
					if d > 1e-4 || d < -1e-4 {
						t.Fatalf("%s: C(%d,%d) ISA %v vs Go %v", p.Name, i, j, got, want)
					}
				}
			}
			for k := 0; k < spec.KC; k++ {
				for j := 0; j < spec.NB; j++ {
					if bcISA[k*spec.NRTotal+spec.JOff+j] != bT[j*spec.LDBT+k] {
						t.Fatalf("%s: Bc scatter (%d,%d) wrong", p.Name, k, j)
					}
				}
			}
		} else {
			a := fillRand64((spec.MR-1)*spec.LDA+spec.KC, rng)
			bT := fillRand64((spec.NB-1)*spec.LDBT+spec.KC, rng)
			cISA := fillRand64((spec.MR-1)*spec.LDC+spec.JOff+spec.NB, rng)
			cGo := append([]float64(nil), cISA...)
			bcISA := make([]float64, (spec.KC-1)*spec.NRTotal+spec.JOff+spec.NB)
			bcGo := make([]float64, spec.NB*spec.KC)
			if err := vexec.RunF64(p, a, bT, cISA, bcISA); err != nil {
				t.Fatal(err)
			}
			PackPanelNT(spec.KC, spec.NB, bT, spec.LDBT, bcGo)
			MicroPacked(spec.MR, spec.NB, spec.KC, 1, a, spec.LDA, bcGo, 0, cGo[spec.JOff:], spec.LDC)
			for i := 0; i < spec.MR; i++ {
				for j := 0; j < spec.NB; j++ {
					d := cISA[i*spec.LDC+spec.JOff+j] - cGo[spec.JOff+i*spec.LDC+j]
					if d > 1e-12 || d < -1e-12 {
						t.Fatalf("%s: FP64 C(%d,%d) mismatch", p.Name, i, j)
					}
				}
			}
		}
	}
}

func TestEdgeKernelsComputeSameResult(t *testing.T) {
	kc := 16
	rng := mat.NewRNG(31)
	ap := fillRand32(kc*8, rng) // packed column-major sliver: A(i,k) at k*8+i
	bp := fillRand32(kc*4, rng)
	for _, sched := range []Schedule{Batch, Pipelined} {
		p := BuildEdge8x4(EdgeSpec{Elem: 4, KC: kc, LDAp: 8, LDB: 4, LDC: 4, Schedule: sched})
		c := make([]float32, 8*4)
		if err := vexec.RunF32(p, ap, bp, c); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			for j := 0; j < 4; j++ {
				var acc float32
				for k := 0; k < kc; k++ {
					acc += ap[k*8+i] * bp[k*4+j]
				}
				d := c[i*4+j] - acc
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("%s: C(%d,%d)=%v want %v", p.Name, i, j, c[i*4+j], acc)
				}
			}
		}
	}
}

// TestEdgeSchedulingFig6 verifies the paper's Fig 6 claim under the timing
// model: the interleaved LibShalom schedule beats the batch OpenBLAS
// schedule for the same 8×4 tile whenever loads are not pure L1 hits.
func TestEdgeSchedulingFig6(t *testing.T) {
	build := func(sched Schedule) func(int) *isa.Program {
		return func(kc int) *isa.Program {
			return BuildEdge8x4(EdgeSpec{Elem: 4, KC: kc, LDAp: 8, LDB: 4, LDC: 4, Schedule: sched})
		}
	}
	cfg := defaultCfg()
	cfg.LoadLatency = 12 // edge-case operands rarely sit in L1
	cfg.Window = 12
	batch := uarch.SteadyStateCPI(build(Batch), cfg, 32, 64)
	pipe := uarch.SteadyStateCPI(build(Pipelined), cfg, 32, 64)
	if pipe >= batch {
		t.Fatalf("pipelined CPI %.2f not better than batch %.2f", pipe, batch)
	}
}

// TestMainSchedulePipelinedNotWorse checks the main kernel's schedule is
// never slower than the batch emission under every platform config.
func TestMainSchedulePipelinedNotWorse(t *testing.T) {
	build := func(sched Schedule) func(int) *isa.Program {
		return func(kc int) *isa.Program {
			return BuildMain(MainSpec{Elem: 4, MR: 7, NR: 12, KC: kc, LDA: kc, LDB: 12, LDC: 12, Schedule: sched})
		}
	}
	cfg := defaultCfg()
	cfg.LoadLatency = 10
	cfg.Window = 12
	pipe := uarch.SteadyStateCPI(build(Pipelined), cfg, 16, 32)
	batch := uarch.SteadyStateCPI(build(Batch), cfg, 16, 32)
	if pipe > batch+1e-9 {
		t.Fatalf("pipelined CPI %.2f worse than batch %.2f", pipe, batch)
	}
}

func TestEdgeSpecValidation(t *testing.T) {
	for _, bad := range []EdgeSpec{
		{Elem: 8, KC: 8, LDAp: 8, LDB: 4, LDC: 4},
		{Elem: 4, KC: 7, LDAp: 8, LDB: 4, LDC: 4},
		{Elem: 4, KC: 8, LDAp: 4, LDB: 4, LDC: 4},
	} {
		func() {
			defer func() { recover() }()
			BuildEdge8x4(bad)
			t.Fatalf("bad spec %+v accepted", bad)
		}()
	}
}

func TestNTPackSpecValidation(t *testing.T) {
	for _, bad := range []NTPackSpec{
		{Elem: 4, MR: 7, NB: 4, KC: 8, LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12}, // 7+4+28 > 31
		{Elem: 4, MR: 7, NB: 3, KC: 8, LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12, JOff: 10},
		{Elem: 4, MR: 7, NB: 3, KC: 5, LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12},
	} {
		func() {
			defer func() { recover() }()
			BuildNTPack(bad)
			t.Fatalf("bad spec %+v accepted", bad)
		}()
	}
}

// TestPackOverlapIsNearlyFree is the instruction-level core of §5.3: the
// NN packing micro-kernel (main kernel + interleaved Bc stores) must cost
// almost the same cycles as the plain main kernel — the stores hide under
// the FMA stream on every platform model.
func TestPackOverlapIsNearlyFree(t *testing.T) {
	for _, pl := range platform.All() {
		cfg := uarch.FromPlatform(pl)
		build := func(packB bool) func(int) *isa.Program {
			return func(kc int) *isa.Program {
				return BuildMain(MainSpec{
					Elem: 4, MR: 7, NR: 12, KC: kc,
					LDA: kc, LDB: 64, LDC: 64, PackB: packB, Schedule: Pipelined,
				})
			}
		}
		plain := uarch.SteadyStateCPI(build(false), cfg, 16, 32)
		packed := uarch.SteadyStateCPI(build(true), cfg, 16, 32)
		if packed > plain*1.05 {
			t.Errorf("%s: overlapped packing costs %.1f%% (CPI %.2f vs %.2f); §5.3 claims it hides",
				pl.Name, 100*(packed/plain-1), packed, plain)
		}
	}
}

// TestNTPackKernelEfficiency: the 7×3 inner-product packing kernel (Alg 3)
// must sustain a large fraction of the FMA pipes' throughput despite its
// scatter stores — the design exists precisely to keep packing on the FMA
// critical path rather than as a memory-only pass.
func TestNTPackKernelEfficiency(t *testing.T) {
	for _, pl := range platform.All() {
		cfg := uarch.FromPlatform(pl)
		build := func(kc int) *isa.Program {
			return BuildNTPack(NTPackSpec{
				Elem: 4, MR: 7, NB: 3, KC: kc,
				LDA: kc, LDBT: kc, LDC: 12, NRTotal: 12, JOff: 0,
			})
		}
		cpi := uarch.SteadyStateCPI(build, cfg, 16, 32) // cycles per K step
		// 21 vector FMAs per 4 K steps = 5.25 FMA/step on FMAPipes pipes.
		ideal := 5.25 / float64(pl.FMAPipes)
		if cpi > ideal*1.6 {
			t.Errorf("%s: NT pack kernel CPI %.2f vs ideal %.2f — scatter stores not overlapping", pl.Name, cpi, ideal)
		}
	}
}
