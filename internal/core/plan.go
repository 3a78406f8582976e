package core

import (
	"fmt"
	"strings"

	"libshalom/internal/analytic"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/telemetry"
)

// Plan describes every decision the driver takes for a GEMM call, before
// any arithmetic happens: the micro-kernel tile, the blocking, the §4
// packing strategy, the §5.3.2 lookahead depth, and the fork-join width
// with its §6 partition. PlanFor and the driver's plan phase make each
// through the same function, so the plan is the one the driver runs; it
// reports the incumbent route (breakers and tuned overrides are decided per
// problem by the dispatch ladder).
//
// For parallel calls the packing decision is re-evaluated per thread on the
// thread's sub-block; Plan reports the decision for the whole problem and
// for one representative thread block.
type Plan struct {
	Mode      Mode
	ElemBytes int
	Tile      analytic.Tile
	Blocking  analytic.Blocking
	// ShapeClass is the telemetry workload regime of the problem — the
	// shape_class label its metrics are keyed by.
	ShapeClass telemetry.ShapeClass

	// BStrategy is the §4 decision for the whole problem's B footprint.
	BStrategy pack.Strategy
	// Depth is the §5.3.2 packing lookahead (0 = current sliver only).
	Depth pack.Depth
	// PackA reports whether the transposed A operand is gathered into a
	// row-major block buffer (TN/TT, §4.3).
	PackA bool

	// Threads is the fork-join width: a forked call runs Threads blocks.
	Threads   int
	Partition analytic.Partition
	// ThreadBlockM/N is the representative per-thread C block.
	ThreadBlockM, ThreadBlockN int
	// ThreadBStrategy is the §4 decision one thread makes for its block.
	ThreadBStrategy pack.Strategy
}

// PlanFor computes the execution plan d follows for a call: the width it
// requests (the configured width or the §7.4 answer), capped by the work
// rule.
func PlanFor(d *Driver, mode Mode, m, n, k, elemBytes int) Plan {
	plat := d.cfg.Plat
	fam := newFastRoute(plat, elemBytes)
	tile := fam.tile
	l1 := plat.L1.SizeBytes
	p := Plan{
		Mode:       mode,
		ElemBytes:  elemBytes,
		Tile:       tile,
		Blocking:   fam.blk,
		ShapeClass: telemetry.ClassifyShape(m, n, k),
		BStrategy:  mode.bStrategy(n*k*elemBytes, l1),
		Depth:      pack.DepthFor(n*k*elemBytes, plat.LLC().SizeBytes),
		PackA:      mode.TransA(),
	}
	p.Threads, p.Partition = split(d.threadsFor(m, n, k), m, n, k, tile)
	p.ThreadBlockM, p.ThreadBlockN, p.ThreadBStrategy = m, n, p.BStrategy
	if p.Threads > 1 {
		var worst parallel.Block
		for _, b := range parallel.Blocks(m, n, p.Partition, tile.MR, tile.NR) {
			if b.M*b.N > worst.M*worst.N {
				worst = b
			}
		}
		p.ThreadBlockM, p.ThreadBlockN = worst.M, worst.N
		p.ThreadBStrategy = mode.bStrategy(worst.N*k*elemBytes, l1)
	}
	return p
}

// bStrategy is the §4 packing rule for a B operand of sizeB bytes: NT and
// TT always pack (§4.3), NN and TN pack only a B that exceeds the L1 (§4.2).
func (m Mode) bStrategy(sizeB, l1 int) pack.Strategy {
	if m.TransB() {
		return pack.ShouldPackBNT()
	}
	return pack.ShouldPackBNN(sizeB, l1)
}

// forkFloor is the least work, in flops per worker, that pays for a
// fork-join. Measured on a 2-vCPU Xeon with go1.24.0, WithThreads(2)
// against WithThreads(1) in 15 alternating pairs per shape: the pool lost
// at up to 33k flops per worker (8³ and 16³ batches, 1.2–2.0× slower),
// tied between 65k and 221k (0.87–1.22×), and won on every measured batch
// and single call from 262k on (0.79–0.91×, 10–14 pairs of 15).
const forkFloor = 1 << 18

// forkWidth is the one work rule of both fork-join sites, the §6 split of
// a call and the batch pool: min(requested, units, ⌊flops/forkFloor⌋), at
// least 1. units is what the fork spreads — partition blocks or batch
// entries — so a requested width is a cap, never a promise.
func forkWidth(requested, units int, flops float64) int {
	return max(1, min(requested, units, int(flops/forkFloor)))
}

// split plans the §6 fork of one problem: its width and the shape-aware
// partition at that width. A width whose partition has fewer blocks than
// workers (C too narrow for the grid) drops to the block count and is
// partitioned again, so the width, the partition's size and the split's
// pool tasks are one number. It allocates nothing.
func split(requested, m, n, k int, tile analytic.Tile) (int, analytic.Partition) {
	flops := 2 * float64(m) * float64(n) * float64(k)
	t := forkWidth(requested, requested, flops)
	for t > 1 {
		part := analytic.PartitionFor(m, n, t)
		units := parallel.BlockCount(m, n, part, tile.MR, tile.NR)
		if units == t {
			return t, part
		}
		t = forkWidth(t, units, flops)
	}
	return 1, analytic.Partition{TM: 1, TN: 1}
}

// poolWidth is the fork-join width of one batch: the work rule over its
// entries and their summed flops.
func poolWidth[T Float](requested int, batch []BatchEntry[T]) int {
	flops := 0.0
	for i := range batch {
		flops += 2 * float64(batch[i].M) * float64(batch[i].N) * float64(batch[i].K)
	}
	return forkWidth(requested, len(batch), flops)
}

// String renders the plan for humans.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode %s, %d-byte elements, shape class %s\n", p.Mode, p.ElemBytes, p.ShapeClass)
	fmt.Fprintf(&b, "micro-kernel tile: %dx%d (CMR %.2f, %d registers)\n", p.Tile.MR, p.Tile.NR, p.Tile.CMR, p.Tile.Regs)
	fmt.Fprintf(&b, "blocking: mc=%d kc=%d nc=%d\n", p.Blocking.MC, p.Blocking.KC, p.Blocking.NC)
	fmt.Fprintf(&b, "B packing: %s (lookahead t=%d)", p.BStrategy, int(p.Depth))
	if p.PackA {
		b.WriteString("; A gathered from transposed storage")
	}
	b.WriteByte('\n')
	if p.Threads > 1 {
		fmt.Fprintf(&b, "parallel: %d threads as Tm=%d x Tn=%d; per-thread block %dx%d (B packing there: %s)\n",
			p.Threads, p.Partition.TM, p.Partition.TN, p.ThreadBlockM, p.ThreadBlockN, p.ThreadBStrategy)
	} else {
		b.WriteString("single-threaded\n")
	}
	return b.String()
}
