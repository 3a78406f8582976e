package uarch

import (
	"testing"

	"libshalom/internal/isa"
	"libshalom/internal/platform"
)

func cfg1() Config {
	return Config{
		IssueWidth: 4, FMAPipes: 1, LoadPipes: 2, StorePipes: 1,
		Window: 16, FMALatency: 4, LoadLatency: 4, StoreLatency: 1, MiscLatency: 3,
	}
}

func TestEmptyProgram(t *testing.T) {
	p := isa.NewBuilder("empty", 4).MustBuild()
	r := Simulate(p, cfg1())
	if r.Cycles != 0 || r.Instructions != 0 {
		t.Fatalf("empty program result %+v", r)
	}
	if r.IPC() != 0 || r.FMAUtilization() != 0 {
		t.Fatal("empty program rates must be 0")
	}
}

func TestSingleInstructionLatency(t *testing.T) {
	b := isa.NewBuilder("one", 4)
	s := b.Stream("A", isa.StreamA, 4, true)
	b.LdVec(0, s, 0)
	r := Simulate(b.MustBuild(), cfg1())
	if r.Cycles != 4 {
		t.Fatalf("single load cycles = %d, want load latency 4", r.Cycles)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// v0 -> v1 -> v2 chain of FMAs: 3 × FMALatency.
	b := isa.NewBuilder("chain", 4)
	b.Zero(0)
	b.FmlaVec(1, 0, 0)
	b.FmlaVec(2, 1, 1)
	b.FmlaVec(3, 2, 2)
	c := cfg1()
	c.MiscLatency = 1
	r := Simulate(b.MustBuild(), c)
	// zero at cy0 done cy1; fmla1 at cy1 done cy5; fmla2 at cy5 done cy9;
	// fmla3 at cy9 done cy13.
	if r.Cycles != 13 {
		t.Fatalf("chain cycles = %d, want 13", r.Cycles)
	}
}

func TestIndependentFMAsPipelineOnOnePipe(t *testing.T) {
	// 8 independent FMAs on 1 pipe: issue 1/cycle -> last issues at cy7,
	// completes at 7+4=11.
	b := isa.NewBuilder("indep", 4)
	for i := 0; i < 8; i++ {
		b.Zero(i)
	}
	for i := 0; i < 8; i++ {
		b.FmlaVec(i, i, i)
	}
	c := cfg1()
	c.MiscLatency = 1
	c.Window = 32
	r := Simulate(b.MustBuild(), c)
	// zeros: 1 FMA pipe → zeros issue 1/cycle too (they use the FP pipe).
	// 8 zeros finish issuing at cy7; fmla_i needs zero_i done (cy i+1).
	// fmla0 at cy8? No: window lets fmlas interleave — but pipe is shared.
	// Total issue slots on FP pipe = 16 instrs → ≥16 cycles; last completes
	// at 15+4 = 19.
	if r.Cycles != 19 {
		t.Fatalf("cycles = %d, want 19", r.Cycles)
	}
	if r.FMABusyCycles != 16 {
		t.Fatalf("FMA busy cycles = %d, want 16", r.FMABusyCycles)
	}
}

func TestTwoFMAPipesDoubleThroughput(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder("p", 4)
		for i := 0; i < 16; i++ {
			b.Zero(i % 32)
		}
		return b.MustBuild()
	}
	c1 := cfg1()
	c1.MiscLatency = 1
	c2 := c1
	c2.FMAPipes = 2
	r1 := Simulate(build(), c1)
	r2 := Simulate(build(), c2)
	if r2.Cycles >= r1.Cycles {
		t.Fatalf("2 pipes (%d cy) not faster than 1 pipe (%d cy)", r2.Cycles, r1.Cycles)
	}
}

func TestLoadPipeStructuralHazard(t *testing.T) {
	// 6 independent loads, 2 load pipes: issue over 3 cycles, last done at
	// 2+4 = 6.
	b := isa.NewBuilder("loads", 4)
	s := b.Stream("A", isa.StreamA, 64, true)
	for i := 0; i < 6; i++ {
		b.LdVec(i, s, i*4)
	}
	r := Simulate(b.MustBuild(), cfg1())
	if r.Cycles != 6 {
		t.Fatalf("cycles = %d, want 6", r.Cycles)
	}
}

func TestIssueWidthLimits(t *testing.T) {
	// 8 independent loads with 8 load pipes but issue width 2: 4 cycles of
	// issue, last completes at 3+4=7.
	b := isa.NewBuilder("iw", 4)
	s := b.Stream("A", isa.StreamA, 64, true)
	for i := 0; i < 8; i++ {
		b.LdVec(i, s, i*4)
	}
	c := cfg1()
	c.LoadPipes = 8
	c.IssueWidth = 2
	r := Simulate(b.MustBuild(), c)
	if r.Cycles != 7 {
		t.Fatalf("cycles = %d, want 7", r.Cycles)
	}
}

func TestRAWThroughMemoryOpsRespected(t *testing.T) {
	// Store must wait for the FMA producing its source.
	b := isa.NewBuilder("st", 4)
	s := b.Stream("C", isa.StreamC, 4, true)
	b.Zero(0)
	b.FmlaVec(0, 0, 0)
	b.StVec(0, s, 0)
	c := cfg1()
	c.MiscLatency = 1
	r := Simulate(b.MustBuild(), c)
	// zero done cy1, fmla issues cy1 done cy5, store issues cy5 done cy6.
	if r.Cycles != 6 {
		t.Fatalf("cycles = %d, want 6", r.Cycles)
	}
}

// TestIssueOrderRespectsDependencies: each FMA waits for the load it
// consumes, and the independent second load does not wait for the first
// FMA. With a 16-entry window both loads issue at cycle 0 on the two load
// pipes, their FMAs at cycles 4 and 5 on the one FMA pipe, and the last
// completes at 9 (ignoring the loads would give 5). An in-order window of
// one serialises the pairs: 13.
func TestIssueOrderRespectsDependencies(t *testing.T) {
	b := isa.NewBuilder("deps", 4)
	s := b.Stream("A", isa.StreamA, 16, true)
	b.LdVec(0, s, 0)
	b.FmlaVec(1, 0, 0) // depends on the load
	b.LdVec(2, s, 4)   // independent
	b.FmlaVec(3, 2, 2)
	p := b.MustBuild()
	if got := Simulate(p, cfg1()).Cycles; got != 9 {
		t.Fatalf("cycles = %d, want 9", got)
	}
	inOrder := cfg1()
	inOrder.Window = 1
	if got := Simulate(p, inOrder).Cycles; got != 13 {
		t.Fatalf("in-order cycles = %d, want 13", got)
	}
}

// TestWindowEffectBatchVsInterleaved reproduces the Fig 6 phenomenon at the
// model level: with a bounded window, a batch of loads followed by all their
// dependent FMAs runs slower than the same work with loads interleaved
// between FMAs of the previous iteration.
func TestWindowEffectBatchVsInterleaved(t *testing.T) {
	const iters = 16
	// Batch: per iteration, 4 loads then 8 FMAs all depending on them.
	batch := func() *isa.Program {
		b := isa.NewBuilder("batch", 4)
		s := b.Stream("A", isa.StreamA, 16*iters, true)
		for it := 0; it < iters; it++ {
			off := it * 16
			for l := 0; l < 4; l++ {
				b.LdVec(l, s, off+l*4)
			}
			for f := 0; f < 8; f++ {
				b.FmlaElem(8+f, f%4, f%4, 0)
			}
		}
		return b.MustBuild()
	}
	// Interleaved: loads spread between FMAs (LibShalom's Fig 6b shape).
	inter := func() *isa.Program {
		b := isa.NewBuilder("inter", 4)
		s := b.Stream("A", isa.StreamA, 16*iters, true)
		// Software-pipelined: load for iteration it+1 interleaved with
		// FMAs of iteration it. Registers double-buffered (0-3 / 4-7).
		for l := 0; l < 4; l++ {
			b.LdVec(l, s, l*4)
		}
		for it := 0; it < iters; it++ {
			cur := (it % 2) * 4
			nxt := ((it + 1) % 2) * 4
			off := (it + 1) * 16
			for f := 0; f < 8; f++ {
				b.FmlaElem(8+f, cur+f%4, cur+f%4, 0)
				if f < 4 && it+1 < iters {
					b.LdVec(nxt+f, s, off+f*4)
				}
			}
		}
		return b.MustBuild()
	}
	c := cfg1()
	c.Window = 10      // narrow window makes batching hurt
	c.LoadLatency = 14 // edge-kernel loads are rarely L1 hits (strided B, C tile)
	rb := Simulate(batch(), c)
	ri := Simulate(inter(), c)
	if ri.Cycles >= rb.Cycles {
		t.Fatalf("interleaved (%d cy) not faster than batch (%d cy)", ri.Cycles, rb.Cycles)
	}
}

func TestSteadyStateCPI(t *testing.T) {
	build := func(iters int) *isa.Program {
		b := isa.NewBuilder("ss", 4)
		s := b.Stream("A", isa.StreamA, 4*iters, true)
		for i := 0; i < iters; i++ {
			b.LdVec(i%8, s, i*4)
			b.FmlaElem(8+(i%8), i%8, i%8, 0)
		}
		return b.MustBuild()
	}
	cpi := SteadyStateCPI(build, cfg1(), 32, 64)
	// One FMA per iteration on one pipe → at least 1 cycle/iter; with
	// 2 load pipes the load is free. Expect close to 1.
	if cpi < 0.9 || cpi > 2.0 {
		t.Fatalf("steady-state CPI = %v, want ≈1", cpi)
	}
}

func TestFromPlatformMatchesSpec(t *testing.T) {
	p := platform.KP920()
	c := FromPlatform(p)
	if c.FMAPipes != 2 || c.IssueWidth != 4 || c.FMALatency != 4 || c.Window != 24 {
		t.Fatalf("FromPlatform mismatch: %+v", c)
	}
}

func TestAllPlatformConfigsSimulate(t *testing.T) {
	b := isa.NewBuilder("x", 4)
	s := b.Stream("A", isa.StreamA, 8, true)
	b.LdVec(0, s, 0).LdVec(1, s, 4).FmlaVec(2, 0, 1)
	p := b.MustBuild()
	for _, pl := range platform.All() {
		r := Simulate(p, FromPlatform(pl))
		if r.Cycles <= 0 {
			t.Fatalf("%s produced %d cycles", pl.Name, r.Cycles)
		}
	}
}

func TestDegenerateConfigClamped(t *testing.T) {
	b := isa.NewBuilder("d", 4)
	b.Zero(0).Zero(1)
	p := b.MustBuild()
	r := Simulate(p, Config{FMAPipes: 1, LoadPipes: 1, StorePipes: 1}) // zero width/window
	if r.Cycles <= 0 {
		t.Fatal("degenerate config did not clamp")
	}
}

func TestIPC(t *testing.T) {
	r := Result{Cycles: 10, Instructions: 20}
	if r.IPC() != 2 {
		t.Fatal("IPC wrong")
	}
}
