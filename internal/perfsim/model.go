package perfsim

import (
	"fmt"
	"math"
	"sync"

	"libshalom/internal/analytic"
	"libshalom/internal/baselines"
	"libshalom/internal/cachemodel"
	"libshalom/internal/kernels"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/uarch"
)

// Workload is one modeled GEMM invocation.
type Workload struct {
	M, N, K   int
	ElemBytes int  // 4 or 8
	TransA    bool // TN/TT data layout (A stored K×M)
	TransB    bool // NT data layout (the figures evaluate NN and NT)
	Threads   int
	Warm      bool // warm-cache methodology of Fig 7 (vs cold, Fig 8)
}

// Flops returns the floating-point operation count of the workload.
func (w Workload) Flops() float64 { return 2 * float64(w.M) * float64(w.N) * float64(w.K) }

// Result is the model's output for one (library, platform, workload) point.
type Result struct {
	Seconds  float64
	GFLOPS   float64
	L2Misses float64 // chip-total modeled L2 miss lines
	// Components decomposes the per-thread critical path in seconds:
	// "kernel", "edge", "pack", "mem", "overhead", "forkjoin".
	Components map[string]float64
	// ActiveThreads is how many threads received work under the persona's
	// partition (§3.2's third missed opportunity shows up here).
	ActiveThreads int
}

// Run evaluates the model.
func Run(lib Library, plat *platform.Platform, w Workload) Result {
	p := personaFor(lib, w.ElemBytes)
	freqHz := plat.FreqGHz * 1e9

	threads := w.Threads
	if threads < 1 {
		threads = 1
	}
	if p.parallel == baselines.SchemeNone {
		threads = 1
	}

	if threads == 1 {
		st := singleThread(p, plat, w.M, w.N, w.K, w.ElemBytes, w.TransA, w.TransB, w.Warm, plat.DRAMBandwidthGB/4, w.N)
		sec := st.cycles / freqHz
		comps := st.components(freqHz)
		return Result{
			Seconds:       sec,
			GFLOPS:        w.Flops() / sec / 1e9,
			L2Misses:      st.traffic.L2MissLines,
			Components:    comps,
			ActiveThreads: 1,
		}
	}

	// --- parallel path ---
	var part analytic.Partition
	if p.shapeAware {
		part = analytic.PartitionFor(w.M, w.N, threads)
	} else {
		switch p.parallel {
		case baselines.SchemeMSplit:
			part = analytic.Partition{TM: threads, TN: 1}
		case baselines.SchemeNSplit:
			part = analytic.Partition{TM: 1, TN: threads}
		case baselines.SchemeGridM:
			part = baselines.GridMPartition(threads)
		default:
			tm := int(math.Sqrt(float64(threads)))
			for threads%tm != 0 {
				tm--
			}
			part = analytic.Partition{TM: tm, TN: threads / tm}
		}
	}
	blocks := parallel.Blocks(w.M, w.N, part, p.mr, p.nr)
	active := len(blocks)
	// Critical path: the largest block.
	var worst parallel.Block
	for _, b := range blocks {
		if b.M*b.N > worst.M*worst.N {
			worst = b
		}
	}
	// A thread's share of the memory system shrinks as active threads grow
	// (a single core can stream about a quarter of the chip bandwidth).
	// When the chip has a shared L3, the TM threads of one column group
	// read the same B slice: one DRAM fetch serves all of them, which
	// effectively multiplies each thread's bandwidth (capped — the L3
	// cannot broadcast indefinitely). Phytium 2000+ has no L3, so every
	// thread pays for its own copy — one reason its irregular-GEMM
	// baselines collapse harder (Fig 9 vs Fig 10).
	share := 1
	if plat.L3.SizeBytes > 0 && part.TM > 1 {
		share = part.TM
		if share > 8 {
			share = 8
		}
		if share > active {
			share = active
		}
	}
	bwShare := plat.DRAMBandwidthGB / float64(max(4, active)) * float64(share)
	// The per-thread block still walks B at the original matrix's row
	// stride.
	st := singleThread(p, plat, worst.M, worst.N, w.K, w.ElemBytes, w.TransA, w.TransB, w.Warm, bwShare, w.N)
	fj := float64(plat.ForkJoinBaseCy + plat.ForkJoinPerThreadCy*threads)
	// Critical-path friction: contention and stragglers grow with the
	// number of active threads (see platform.StragglerFrac).
	straggle := 1 + plat.StragglerFrac*math.Log2(float64(max(2, active)))
	perThreadSec := (st.cycles*straggle + fj) / freqHz

	// Chip-level DRAM bandwidth floor: every block's traffic shares the
	// memory system.
	chipBytes := st.traffic.DRAMBytes * float64(active) / float64(share)
	bwFloor := chipBytes / (plat.DRAMBandwidthGB * 1e9)
	sec := perThreadSec
	if bwFloor > sec {
		sec = bwFloor
	}
	comps := st.components(freqHz)
	comps["forkjoin"] = fj / freqHz
	if bwFloor > perThreadSec {
		comps["bandwidth"] = bwFloor - perThreadSec
	}
	return Result{
		Seconds:       sec,
		GFLOPS:        w.Flops() / sec / 1e9,
		L2Misses:      st.traffic.L2MissLines * float64(active),
		Components:    comps,
		ActiveThreads: active,
	}
}

// stResult is the single-thread model decomposition (cycles).
type stResult struct {
	cycles     float64
	kernelFull float64
	kernelEdge float64
	packCycles float64
	memCycles  float64
	overhead   float64
	traffic    cachemodel.Traffic
}

func (s stResult) components(freqHz float64) map[string]float64 {
	return map[string]float64{
		"kernel":   s.kernelFull / freqHz,
		"edge":     s.kernelEdge / freqHz,
		"pack":     s.packCycles / freqHz,
		"mem":      s.memCycles / freqHz,
		"overhead": s.overhead / freqHz,
	}
}

// singleThread models one thread's GEMM of shape m×n×k.
func singleThread(p persona, plat *platform.Platform, m, n, k, elem int, transA, transB, warm bool, bwGBs float64, ldbElems int) stResult {
	var r stResult
	if m <= 0 || n <= 0 || k <= 0 {
		return r
	}
	lanes := 16 / elem
	blk := analytic.BlockingFor(plat, elem)
	cfg := uarch.FromPlatform(plat)

	// LIBXSMM's JIT scope: direct unpacked kernels, specialized edges.
	direct := p.smallDirectCube > 0 && cbrtI(m, n, k) <= p.smallDirectCube && !transB

	// --- memory traffic ---
	var strat cachemodel.Strategy
	switch {
	case direct:
		strat = cachemodel.Strategy{NoPackB: true}
	case p.overlapPack && !p.noPackDecision:
		// Ablation: the §4.2 decision disabled — overlap-pack B always.
		strat = cachemodel.Strategy{PackBOverlapSliver: true, TransB: transB}
	case p.overlapPack:
		strat = cachemodel.LibShalomStrategy(transB, n*k*elem, plat.L1.SizeBytes)
	case p.seqPackB && !p.seqPackA:
		// Ablation: sequential B packing but no A packing.
		strat = cachemodel.Strategy{PackBSeq: true, TransB: transB}
	default:
		strat = cachemodel.ConventionalStrategy(transB)
	}
	if transA && p.overlapPack {
		// LibShalom TN/TT gathers A blocks (§4.3); conventional personas
		// already pack A unconditionally (PackASeq).
		strat.GatherA = true
	}
	sh := cachemodel.Shape{M: m, N: n, K: k, ElemBytes: elem}
	r.traffic = cachemodel.Estimate(strat, plat, sh, blk, warm)
	if p.panelUpfront {
		// BLASFEO converts each operand exactly once instead of per panel.
		r.traffic.PackLoadElems = float64(m*k + n*k)
	}

	// --- kernel cycles from tile-level instruction simulation ---
	kc := blk.KC
	mr, nr := p.mr, p.nr
	fullKB := k / kc
	remK := k % kc

	mEff := m
	if mEff > blk.MC {
		mEff = blk.MC
	}
	rowTilesPerBlock := ceilI(mEff, mr)
	packFrac := 0.0
	if p.overlapPack && (strat.PackBOverlapSliver || transB) {
		packFrac = 1 / float64(rowTilesPerBlock)
	}

	kcCost := func(kcb int) (full, edge float64) {
		if kcb <= 0 {
			return 0, 0
		}
		kcSim := roundUp(kcb, lanes)
		// Full tiles.
		mainCy := simMain(p, plat, cfg, elem, mr, nr, kcSim, false, cfg.LoadLatency)
		packCy := mainCy
		if packFrac > 0 {
			if transB {
				packCy = simNTPack(p, plat, cfg, elem, mr, nr, kcSim)
			} else {
				packCy = simMain(p, plat, cfg, elem, mr, nr, kcSim, true, cfg.LoadLatency)
			}
		}
		fullTileCy := (1-packFrac)*mainCy + packFrac*packCy

		em, en := m%mr, n%nr
		nFullR, nFullC := m/mr, n/nr
		full = float64(nFullR*nFullC) * fullTileCy

		// Edge tiles: simulated with L2-class load latency (edge operands
		// rarely sit packed in L1); LibShalom's rescheduled edge kernels
		// prefetch the next iteration's elements (§5.4) and therefore see
		// the planned latency, while batch-scheduled edge kernels expose
		// the raw, unprefetched latency (Fig 6a). An edge tile never costs
		// more than a full tile — every library guarantees that by
		// construction — so the simulated cost is capped.
		edgeLat := plat.L2.LatencyCy
		edgeCost := func(tm, tn int) float64 {
			if p.edgePad {
				return fullTileCy // BLIS: full-tile work for partial output
			}
			lat := edgeLat
			if direct {
				// JIT-specialized edges: same latency class as main tiles.
				lat = cfg.LoadLatency
			} else if !p.edgeScheduled && p.schedule == kernels.Batch {
				lat = 3 * edgeLat // unprefetched edge operands miss deeper
			}
			c := simEdge(p, plat, cfg, elem, tm, tn, kcSim, lat)
			if cap := 1.3 * fullTileCy; c > cap {
				c = cap
			}
			return c
		}
		if en > 0 {
			edge += float64(nFullR) * edgeCost(mr, en)
		}
		if em > 0 {
			edge += float64(nFullC) * edgeCost(em, nr)
		}
		if em > 0 && en > 0 {
			edge += edgeCost(em, en)
		}
		return full, edge
	}

	f1, e1 := kcCost(kc)
	r.kernelFull += float64(fullKB) * f1
	r.kernelEdge += float64(fullKB) * e1
	if remK > 0 {
		f2, e2 := kcCost(remK)
		r.kernelFull += f2
		r.kernelEdge += e2
	}
	// Kernel quality scaling.
	r.kernelFull /= p.eff
	r.kernelEdge /= p.eff

	// --- transposed-A gather cycles (TN/TT) ---
	if strat.GatherA {
		// The gather reads the stored K×M block row-contiguously but
		// scatters into the row-major buffer; charge one element per
		// store-pipe slot with a scatter penalty.
		aPasses := math.Max(1, float64(n)/float64(blk.NC))
		r.packCycles += float64(m) * float64(k) * aPasses / float64(lanes) * 2
	}

	// --- sequential packing cycles ---
	if r.traffic.PackLoadElems > 0 && !p.overlapPack {
		// Vectorized copy sustains ≈ lanes elements per cycle through the
		// store pipe; charge cycles plus the streaming-bandwidth cost of
		// pulling the source through the hierarchy (prefetch-friendly for
		// row-major sources, strided for transposed gathers).
		copyCy := r.traffic.PackLoadElems / float64(lanes)
		gatherPenalty := 1.0
		if transB {
			gatherPenalty = 1.3 // transpose gather defeats unit-stride stores
		}
		if p.panelUpfront {
			gatherPenalty = 3.0 // panel-major interleaving is a scatter
		}
		r.packCycles = copyCy * gatherPenalty
	}

	// --- memory stalls ---
	l2lat := float64(plat.L2.LatencyCy)
	l3lat := float64(plat.DRAMLatencyCy)
	if plat.L3.SizeBytes > 0 {
		l3lat = float64(plat.L3.LatencyCy)
	}
	servedL2 := math.Max(0, r.traffic.L1MissLines-r.traffic.L2MissLines)
	servedL3 := math.Max(0, r.traffic.L2MissLines-r.traffic.LLCMissLines)
	servedDRAM := r.traffic.LLCMissLines
	latTerm := servedL2*l2lat + servedL3*l3lat + servedDRAM*float64(plat.DRAMLatencyCy)
	// Exposure: the fraction of miss latency the schedule cannot hide.
	// GEMM streams are prefetch-friendly, so most of it is hidden; batch
	// schedules expose more of it (Fig 6a), and the exposure grows with
	// the core's FMA throughput — §8.5: a faster FP engine drains the
	// in-flight work sooner, so the same scheduling slack hides less.
	exposure := 0.015 + 0.022*float64(plat.FMAPipes)
	if p.schedule == kernels.Pipelined {
		exposure = 0.02
	}
	// Streaming bandwidth cost overlaps with computation up to ~80%
	// (hardware prefetch runs ahead of the FMA stream); only the excess
	// is serial time.
	bwTerm := r.traffic.DRAMBytes / (bwGBs * 1e9) * plat.FreqGHz * 1e9
	bwExcess := math.Max(0, bwTerm-0.8*(r.kernelFull+r.kernelEdge))
	r.memCycles = latTerm*exposure + bwExcess

	// --- TLB cost of the NN-mode sliver pack (§8.2) ---
	// Under NN, LibShalom's overlap pack reads B(k, j..j+nr) down the K
	// direction: consecutive k rows sit a full row stride apart, so for
	// irregular N each access lands on a different page. When the kc rows
	// exceed the TLB and the row stride exceeds a page, every sliver pays
	// kc page walks — the reason the paper measures NT above NN for
	// irregular inputs (B is K-contiguous as stored under NT).
	if strat.PackBOverlapSliver && !transB {
		rowStrideBytes := ldbElems * elem
		if rowStrideBytes >= plat.PageBytes && kc > plat.TLBEntrs {
			slivers := float64(ceilI(n, nr)) * float64(fullKB+signI(remK)) * float64(ceilI(m, blk.MC))
			const walkCycles = 12
			kcAvg := float64(k) / float64(fullKB+signI(remK))
			r.memCycles += slivers * kcAvg * walkCycles
		}
	}

	// --- fixed overheads ---
	tiles := float64(ceilI(m, mr) * ceilI(n, nr) * max(1, fullKB+signI(remK)))
	r.overhead = p.callOverhead + 12*tiles

	r.cycles = r.kernelFull + r.kernelEdge + r.packCycles + r.memCycles + r.overhead
	return r
}

// --- micro-kernel simulation memoization ---

var (
	simMu    sync.Mutex
	simCache = map[string]float64{}
)

func simKey(parts ...interface{}) string { return fmt.Sprint(parts...) }

// simMain returns the simulated cycle count of one main micro-kernel
// invocation (an mr×nr tile over kc rank-1 updates), including prologue and
// epilogue.
func simMain(p persona, plat *platform.Platform, cfg uarch.Config, elem, mr, nr, kc int, packB bool, loadLat int) float64 {
	nr = roundUp(nr, 16/elem)
	key := simKey("main", plat.Name, elem, mr, nr, kc, p.schedule, packB, loadLat)
	simMu.Lock()
	if v, ok := simCache[key]; ok {
		simMu.Unlock()
		return v
	}
	simMu.Unlock()
	prog := kernels.BuildMain(kernels.MainSpec{
		Elem: elem, MR: mr, NR: nr, KC: kc,
		LDA: kc, LDB: max(nr, 64), LDC: max(nr, 64),
		Accumulate: true, PackB: packB, Schedule: p.schedule,
	})
	c := cfg
	c.LoadLatency = loadLat
	v := float64(uarch.Simulate(prog, c).Cycles)
	simMu.Lock()
	simCache[key] = v
	simMu.Unlock()
	return v
}

// simEdge simulates an edge tile of shape tm×tn; tn is rounded up to the
// vector width (masked tails cost a full lane).
func simEdge(p persona, plat *platform.Platform, cfg uarch.Config, elem, tm, tn, kc, loadLat int) float64 {
	lanes := 16 / elem
	tn = roundUp(tn, lanes)
	tm = clampTileMR(tm, tn, lanes)
	sched := kernels.Batch
	if p.edgeScheduled || p.schedule == kernels.Pipelined {
		sched = kernels.Pipelined
	}
	key := simKey("edge", plat.Name, elem, tm, tn, kc, sched, loadLat)
	simMu.Lock()
	if v, ok := simCache[key]; ok {
		simMu.Unlock()
		return v
	}
	simMu.Unlock()
	prog := kernels.BuildMain(kernels.MainSpec{
		Elem: elem, MR: tm, NR: tn, KC: kc,
		LDA: kc, LDB: max(tn, 64), LDC: max(tn, 64),
		Accumulate: true, Schedule: sched,
	})
	c := cfg
	c.LoadLatency = loadLat
	v := float64(uarch.Simulate(prog, c).Cycles)
	simMu.Lock()
	simCache[key] = v
	simMu.Unlock()
	return v
}

// simNTPack simulates the NT packing micro-kernel covering a full mr×nr
// tile: the 7×3 kernel is invoked nr/3 times (§5.3.2).
func simNTPack(p persona, plat *platform.Platform, cfg uarch.Config, elem, mr, nr, kc int) float64 {
	nb := 3
	// The packing kernel's own register tile must fit the file regardless
	// of the main tile (mr + nb + mr·nb + 1 reduce ≤ 32); the paper's is
	// 7×3. Ablated personas with wider mr shrink to the feasible shape.
	for mr > 1 && mr+nb+mr*nb > 31 {
		mr--
	}
	calls := ceilI(nr, nb)
	key := simKey("ntpack", plat.Name, elem, mr, nr, kc)
	simMu.Lock()
	if v, ok := simCache[key]; ok {
		simMu.Unlock()
		return v * float64(calls)
	}
	simMu.Unlock()
	prog := kernels.BuildNTPack(kernels.NTPackSpec{
		Elem: elem, MR: mr, NB: nb, KC: kc,
		LDA: kc, LDBT: max(kc, 64), LDC: max(nr, 64),
		NRTotal: nr, JOff: 0,
	})
	v := float64(uarch.Simulate(prog, cfg).Cycles)
	simMu.Lock()
	simCache[key] = v
	simMu.Unlock()
	return v * float64(calls)
}

// clampTileMR shrinks tm until the tile fits the register file.
func clampTileMR(tm, tn, lanes int) int {
	nb := tn / lanes
	for tm > 1 && tm+nb+tm*nb > 32 {
		tm--
	}
	return tm
}

func ceilI(a, b int) int { return (a + b - 1) / b }

func roundUp(a, b int) int {
	if a <= 0 {
		return b
	}
	return ceilI(a, b) * b
}

func signI(a int) int {
	if a > 0 {
		return 1
	}
	return 0
}

func cbrtI(m, n, k int) int {
	return int(math.Cbrt(float64(m) * float64(n) * float64(k)))
}
