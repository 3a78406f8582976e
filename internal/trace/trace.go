// Package trace generates the memory-access trace of a blocked GEMM at
// cache-line granularity and replays it through the trace-driven cache
// simulator (internal/cache). It exists to cross-validate the analytic
// blocking-level model (internal/cachemodel) on reduced shapes: the
// analytic model is what large experiments use (a per-access simulation of
// N=50176 operands is infeasible), and this package checks that its miss
// ordering and rough magnitudes agree with a faithful simulation where one
// is affordable.
package trace

import (
	"libshalom/internal/analytic"
	"libshalom/internal/cache"
	"libshalom/internal/cachemodel"
	"libshalom/internal/platform"
)

// Address-space bases keep the operands disjoint; offsets within each are
// element indices scaled by the element size.
const (
	baseA  uint64 = 0x0000_0000_0000
	baseB  uint64 = 0x0100_0000_0000
	baseC  uint64 = 0x0200_0000_0000
	baseBc uint64 = 0x0300_0000_0000
	baseAc uint64 = 0x0400_0000_0000
)

// Stats reports the replayed misses per level.
type Stats struct {
	L1, L2, LLC cache.Stats
	TLB         cache.Stats
}

// Replay walks the GEMM loop nest of the given strategy over an m×n×k
// problem and feeds every operand touch (at row-segment granularity)
// through the platform's cache hierarchy. The tile is the micro-kernel
// shape; blocking supplies (mc, kc, nc). It returns per-level statistics.
//
// The walk mirrors the structures in internal/core (LibShalom: jj→ii→kk→j
// with per-sliver overlap packing) and internal/baselines (conventional:
// jj→kk→pack Bc→ii→pack Ac→GEBP).
func Replay(plat *platform.Platform, strat cachemodel.Strategy, sh cachemodel.Shape, tile analytic.Tile, blk analytic.Blocking) Stats {
	h := cache.NewHierarchy(plat)
	eb := uint64(sh.ElemBytes)
	m, n, k := sh.M, sh.N, sh.K
	mc, kc, nc := blk.MC, blk.KC, blk.NC
	mr, nr := tile.MR, tile.NR

	// Row-segment touch helpers. Leading dimensions: A is m×k, B is k×n
	// (or n×k stored for TransB — for line-touch purposes only the segment
	// lengths differ; we model the logical K×N walk with the stored
	// layout's contiguity).
	touch := func(base uint64, off, elems int) {
		addr := base + uint64(off)*eb
		h.TLB.Access(addr) // one translation per segment start
		h.L1.AccessRange(addr, elems*int(eb))
	}
	touchA := func(i, kk, rows, cols int) {
		for r := 0; r < rows; r++ {
			touch(baseA, (i+r)*k+kk, cols)
		}
	}
	touchB := func(kk, j, rows, cols int) {
		if strat.TransB {
			// stored n×k: logical B(kk..,j..) is rows of the stored matrix
			for c := 0; c < cols; c++ {
				touch(baseB, (j+c)*k+kk, rows)
			}
			return
		}
		for r := 0; r < rows; r++ {
			touch(baseB, (kk+r)*n+j, cols)
		}
	}
	touchC := func(i, j, rows, cols int) {
		for r := 0; r < rows; r++ {
			touch(baseC, (i+r)*n+j, cols)
		}
	}
	touchBc := func(kk, j, rows, cols, width int) {
		for r := 0; r < rows; r++ {
			touch(baseBc, (kk+r)*width+j, cols)
		}
	}
	touchAc := func(i, kk, rows, cols, width int) {
		for r := 0; r < rows; r++ {
			touch(baseAc, (i+r)*width+kk, cols)
		}
	}

	conventional := strat.PackBSeq || strat.PackASeq

	for jj := 0; jj < n; jj += nc {
		ncb := min(nc, n-jj)
		if conventional {
			// jj → kk → pack Bc → ii → pack Ac → GEBP (Fig 1).
			for kk := 0; kk < k; kk += kc {
				kcb := min(kc, k-kk)
				if strat.PackBSeq {
					touchB(kk, jj, kcb, ncb)
					touchBc(0, 0, kcb, ncb, ncb) // write the panel
				}
				for ii := 0; ii < m; ii += mc {
					mcb := min(mc, m-ii)
					if strat.PackASeq {
						touchA(ii, kk, mcb, kcb)
						touchAc(0, 0, mcb, kcb, kcb)
					}
					for j := 0; j < ncb; j += nr {
						nrb := min(nr, ncb-j)
						for i := 0; i < mcb; i += mr {
							mrb := min(mr, mcb-i)
							touchAc(i, 0, mrb, kcb, kcb)
							touchBc(0, j, kcb, nrb, ncb)
							touchC(ii+i, jj+j, mrb, nrb)
						}
					}
				}
			}
			continue
		}
		// LibShalom: jj → ii → kk → j; the first tile of each j sliver
		// packs B into a kc×nr sliver buffer, later tiles reuse it.
		for ii := 0; ii < m; ii += mc {
			mcb := min(mc, m-ii)
			for kk := 0; kk < k; kk += kc {
				kcb := min(kc, k-kk)
				for j := 0; j < ncb; j += nr {
					nrb := min(nr, ncb-j)
					packSliver := strat.PackBOverlapSliver
					for i := 0; i < mcb; i += mr {
						mrb := min(mr, mcb-i)
						touchA(ii+i, kk, mrb, kcb)
						if i == 0 || !packSliver {
							// First tile (or no-pack mode) reads B itself.
							touchB(kk, jj+j, kcb, nrb)
							if packSliver {
								touchBc(0, 0, kcb, nrb, nrb) // sliver buffer write
							}
						} else {
							touchBc(0, 0, kcb, nrb, nrb) // reuse the sliver
						}
						touchC(ii+i, jj+j, mrb, nrb)
					}
				}
			}
		}
	}

	s := Stats{L1: h.L1.Stats(), L2: h.L2.Stats(), TLB: h.TLB.Stats()}
	if h.L3 != nil {
		s.LLC = h.L3.Stats()
	} else {
		s.LLC = s.L2
	}
	return s
}
