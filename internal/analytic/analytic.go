// Package analytic implements the paper's analytic methods: the register-file
// constraint and CMR objective that determine the micro-kernel tile (mr, nr)
// (§5.2, Eq. 1–2), the cache-capacity-driven blocking parameters (mc, kc, nc)
// (§5.5), and the two-level parallel work partition Tn = ⌈√(T·N/M)⌉ (§6,
// Eq. 3–4). The paper solves Eq. 1–2 with a Lagrange-multiplier argument and
// rounds to integers; an exact enumeration over the (small) feasible set
// finds the same optimum and is what Solve uses, with a test pinning the
// published result mr=7, nr=12 for FP32 (and mr=7, nr=6 for FP64).
package analytic

import (
	"fmt"
	"math"

	"libshalom/internal/platform"
)

// CMR returns the computation-to-memory ratio of an mr×nr outer-product
// micro-kernel as defined by Eq. 2: 2·mr·nr floating point operations per
// (mr + nr) element loads per unrolled K step.
func CMR(mr, nr int) float64 {
	if mr+nr == 0 {
		return 0
	}
	return 2 * float64(mr) * float64(nr) / float64(mr+nr)
}

// RegistersNeeded returns the vector registers an mr×nr micro-kernel
// requires with j elements per register: mr for broadcast A elements, nr/j
// for the B sliver and mr·nr/j accumulators (left side of Eq. 1).
func RegistersNeeded(mr, nr, j int) int {
	return mr + nr/j + mr*nr/j
}

// InnerProductRegisters returns the vector registers the NT inner-product
// packing micro-kernel (Fig 5, Alg 3) requires for an mr×nb tile: mr A-row
// registers, nb B-row registers and mr·nb accumulators. The epilogue's
// reduction scratch reuses a dead B register (Fig 5's register plan), so no
// additional register is charged.
func InnerProductRegisters(mr, nb int) int {
	return mr + nb + mr*nb
}

// Feasible reports whether (mr, nr) satisfies Eq. 1 for lane count j and the
// given register budget (the paper reserves one of the 32 NEON registers for
// prefetching, leaving 31).
func Feasible(mr, nr, j, budget int) bool {
	return mr >= 1 && nr >= j && nr%j == 0 && RegistersNeeded(mr, nr, j) <= budget
}

// Tile is a solved micro-kernel shape.
type Tile struct {
	MR, NR int
	CMR    float64
	Regs   int
}

// RegisterBudget is the usable vector-register count: 32 minus the one the
// paper reserves for prefetching (§5.2.1).
const RegisterBudget = 31

// Solve maximizes CMR subject to Eq. 1 by exact enumeration. j is the lane
// count (4 for FP32, 2 for FP64 on 128-bit NEON). Ties prefer the larger nr
// (wider B slivers amortize the per-iteration loop overhead), then larger mr.
func Solve(j, budget int) Tile {
	best := Tile{}
	for mr := 1; mr <= budget; mr++ {
		for nr := j; RegistersNeeded(mr, nr, j) <= budget; nr += j {
			if !Feasible(mr, nr, j, budget) {
				continue
			}
			c := CMR(mr, nr)
			if c > best.CMR+1e-12 ||
				(math.Abs(c-best.CMR) <= 1e-12 && (nr > best.NR || (nr == best.NR && mr > best.MR))) {
				best = Tile{MR: mr, NR: nr, CMR: c, Regs: RegistersNeeded(mr, nr, j)}
			}
		}
	}
	return best
}

// elemTiles[e] is the tile for e-byte elements, FP32 and FP64 solved once:
// the answer depends only on the element size, so no call re-runs Solve.
var elemTiles = [9]Tile{4: Solve(platform.VectorLanes(4), RegisterBudget), 8: Solve(platform.VectorLanes(8), RegisterBudget)}

// SolveForElem returns the micro-kernel tile for the element size in bytes
// (4 → FP32 lanes j=4 → 7×12; 8 → FP64 lanes j=2 → 7×6).
func SolveForElem(elemBytes int) Tile {
	if elemBytes == 4 || elemBytes == 8 {
		return elemTiles[elemBytes]
	}
	return Solve(platform.VectorLanes(elemBytes), RegisterBudget)
}

// Blocking holds the cache blocking parameters of the Goto loop nest.
type Blocking struct {
	MC, KC, NC int
}

// BlockingFor derives (mc, kc, nc) from a platform's cache capacities in the
// standard analytic way (§5.5, citing Low et al.): the kc×nr B sliver plus
// the mr×kc A sliver live in L1 (half of it, leaving room for C and the
// stream of A), the mc×kc A block occupies half of L2, and the kc×nc B panel
// occupies half of the LLC. Results are rounded down to multiples of the
// micro-kernel tile and floored at one tile.
func BlockingFor(p *platform.Platform, elemBytes int) Blocking {
	t := SolveForElem(elemBytes)
	// kc from L1: kc*(nr+mr)*elem ≤ L1/2.
	kc := p.L1.SizeBytes / 2 / ((t.NR + t.MR) * elemBytes)
	if kc < 32 {
		kc = 32
	}
	if kc > 512 {
		kc = 512 // cap: beyond this the C-tile residency in L1 suffers
	}
	// mc from L2 (per-core share when shared): mc*kc*elem ≤ L2share/2.
	l2 := p.L2.SizeBytes
	if p.L2.Shared && p.L2.SharedBy > 1 {
		l2 /= p.L2.SharedBy
	}
	mc := l2 / 2 / (kc * elemBytes)
	mc -= mc % t.MR
	if mc < t.MR {
		mc = t.MR
	}
	// nc from the memory hierarchy: kc*nc*elem ≤ cap/2, where cap is the
	// smaller of the per-core LLC share and twice the per-core L2 share —
	// production libraries size the Bc panel so its kernel re-reads are
	// served near the private L2, not just somewhere in a huge shared LLC.
	llc := p.LLC()
	llcBytes := llc.SizeBytes
	if llc.Shared && llc.SharedBy > 1 {
		llcBytes /= llc.SharedBy
	}
	if cap2 := 2 * l2; cap2 < llcBytes {
		llcBytes = cap2
	}
	nc := llcBytes / 2 / (kc * elemBytes)
	nc -= nc % t.NR
	if nc < t.NR {
		nc = t.NR
	}
	return Blocking{MC: mc, KC: kc, NC: nc}
}

// Partition is a two-level parallel work split: TM×TN = T threads, TM along
// the M dimension and TN along N.
type Partition struct {
	TM, TN int
}

// ParallelCMR evaluates Eq. 3: the computation-to-memory ratio of one
// thread's sub-block when C is divided into a TM×TN grid.
func ParallelCMR(m, n, t int, tn int) float64 {
	if tn <= 0 || t <= 0 {
		return 0
	}
	denom := float64(m)*float64(tn) + float64(n)*float64(t)/float64(tn)
	if denom == 0 {
		return 0
	}
	return float64(m) * float64(n) / denom
}

// PartitionFor computes the paper's partition (§6.1): Tn = ⌈√(T·N/M)⌉
// rounded up to the nearest divisor of T so the cores divide evenly
// (T mod Tn = 0), clamped to [1, T]. The paper's worked example — M=2048,
// N=256, T=64 → Tn=4, Tm=16 — is pinned by a test.
func PartitionFor(m, n, t int) Partition {
	if t <= 1 || m <= 0 || n <= 0 {
		return Partition{TM: max(1, t), TN: 1}
	}
	ideal := math.Sqrt(float64(t) * float64(n) / float64(m))
	tn := int(math.Ceil(ideal - 1e-9))
	if tn < 1 {
		tn = 1
	}
	if tn > t {
		tn = t
	}
	// Round up to the nearest divisor of t.
	for t%tn != 0 {
		tn++
	}
	return Partition{TM: t / tn, TN: tn}
}

// Validate checks a partition against its thread count.
func (p Partition) Validate(t int) error {
	if p.TM < 1 || p.TN < 1 || p.TM*p.TN != t {
		return fmt.Errorf("analytic: partition %dx%d does not use exactly %d threads", p.TM, p.TN, t)
	}
	return nil
}
