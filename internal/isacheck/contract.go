// Package isacheck is the static kernel verifier of the reproduction: a
// multi-pass analysis that proves, without executing a program, that an
// emitted virtual-NEON micro-kernel (internal/isa) satisfies the contract its
// generator declared. LibShalom's core claims are properties of the emitted
// instruction streams — packing folded into the FMA stream (§5.3), dependent
// instructions spread far enough apart for the bounded OoO window to hide
// load latency in the edge kernels (§5.4, Fig 6), and register tilings that
// exactly satisfy Eq. 1 — and before this package those properties were only
// checked dynamically (vexec execution, uarch simulation) or not at all.
//
// Six passes run per (kernel, platform):
//
//   - dataflow: the internal/isa analyzer's invariants (no undefined register
//     reads, bounded dead writes, peak pressure within the register file,
//     input streams never stored).
//   - footprint: every stream's element-level access set must match the
//     contract exactly — A reads mr·kc elements and nothing else, C covers
//     the mr×nr tile with no gaps and no double-stores, pack buffers are
//     written densely and write-before-read per element (§5.3).
//   - depdist: dependency-distance analysis of load→consumer RAW pairs in
//     the steady-state region — the §5.4 discipline, checked statically
//     instead of only via the uarch scoreboard. RAW pairs closer than the
//     platform's OoO window are counted (the window must reorder around
//     them); the contract's declared floors on load→use distance and load
//     batching are enforced.
//   - pressure: a sliding OoO-window issue-pressure pass comparing the op
//     mix inside every window against the platform's FMA/load/store pipe
//     counts; flags windows whose load (or store) demand oversubscribes the
//     pipes beyond the contract's ceiling.
//   - tiling: the peak register pressure measured by liveness analysis must
//     equal the Eq. 1 model's prediction for the declared (mr, nr, j), and
//     the declared tiling itself must be feasible (§5.2).
//   - symfoot: the symbolic footprint proof (symbolic.go). Where the
//     footprint pass enumerates the access set of the one registered
//     (mr, nr, kc) instance, this pass proves panel containment and
//     coverage for EVERY shape in the generator family's domain, by
//     reducing span inclusion to polynomial inequalities over (mr, nr, kc)
//     decided exactly at the domain box's corners, and anchors the declared
//     emission model to the real generator at the corners. Runs for entries
//     that name their family (Entry.SymFamily).
//
// Kernel generators in internal/kernels and internal/baselines self-register
// (Register) with their contracts; `shalom-bench lint` runs every pass over
// every registered kernel on every platform and is wired into `make check`
// as a build gate.
package isacheck

import (
	"fmt"

	"libshalom/internal/analytic"
)

// Kind identifies which generator family a contract describes; it selects
// the expected-footprint shape and the Eq. 1 register prediction.
type Kind int

const (
	// KindMain is the outer-product main micro-kernel (Alg 2), optionally
	// with the folded B packing of §5.3 (PackB).
	KindMain Kind = iota
	// KindEdge is the 8×4 edge-kernel pair of Fig 6 (§5.4).
	KindEdge
	// KindNTPack is the NT-mode inner-product packing micro-kernel
	// (Fig 5, Alg 3): NR is the per-call column count NB, and the scatter
	// stores fill columns [JOff, JOff+NR) of a KC×NRTotal Bc panel.
	KindNTPack
)

var kindNames = [...]string{"main", "edge", "ntpack"}

// String names the contract kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Contract is what a kernel generator declares about the program it emits.
// The verifier proves the program against it; it never trusts the program.
type Contract struct {
	Kind Kind
	Elem int // element bytes: 4 (FP32) or 8 (FP64)

	// Register tile and K extent. For KindNTPack, NR is the per-call NB.
	MR, NR, KC int

	// Leading dimensions, in elements, of the declared operand layouts.
	// For KindEdge LDA is the packed-A leading dimension (LDAp); for
	// KindNTPack LDB is the stored-transposed leading dimension (LDBT).
	LDA, LDB, LDC int

	// NRTotal and JOff describe the Bc panel a KindNTPack call fills
	// (§5.3.2): columns [JOff, JOff+NR) of a row-major KC×NRTotal buffer.
	NRTotal, JOff int

	Accumulate bool // the kernel loads the C tile before accumulating
	PackB      bool // KindMain only: the kernel also packs B into Bc

	// Pipelined claims the §5.4 scheduling discipline: operand loads are
	// interleaved between FMAs rather than batched. When set, unset
	// schedule thresholds below default to the strict pipelined floors
	// (MinLoadUseDist ≥ 2, MaxLoadRun ≤ 2, MaxLoadPressure ≤ 0.9).
	Pipelined bool

	// MinLoadUseDist is the declared floor on the program-order distance
	// between a load and its first consumer in the steady-state region.
	// Zero means "do not enforce" (unless Pipelined defaults it).
	MinLoadUseDist int
	// MaxLoadRun is the declared ceiling on consecutive load instructions
	// in the steady-state region (batched loads are the Fig 6a defect).
	// Zero means "do not enforce" (unless Pipelined defaults it).
	MaxLoadRun int
	// MaxLoadPressure / MaxStorePressure are declared ceilings on the
	// sliding-window pipe oversubscription ratio (1.0 = the window's load
	// or store pipes are exactly saturated). Zero means "do not enforce"
	// (unless Pipelined defaults the load ceiling).
	MaxLoadPressure  float64
	MaxStorePressure float64

	// MaxDeadWrites tolerates the dead tail writes a software-pipelined
	// body may legally emit (the dataflow pass's budget).
	MaxDeadWrites int

	// ExpectRegs overrides the Eq. 1 register prediction when non-zero;
	// zero derives it from Kind via ExpectedRegs.
	ExpectRegs int
}

// Lanes returns the vector lane count for the contract's element size.
func (c Contract) Lanes() int { return 16 / c.Elem }

// ExpectedRegs returns the register-pressure prediction the tiling pass
// enforces: the Eq. 1 left-hand side for the declared tile.
func (c Contract) ExpectedRegs() int {
	if c.ExpectRegs != 0 {
		return c.ExpectRegs
	}
	switch c.Kind {
	case KindMain:
		return analytic.RegistersNeeded(c.MR, c.NR, c.Lanes())
	case KindNTPack:
		return analytic.InnerProductRegisters(c.MR, c.NR)
	case KindEdge:
		// Fig 6 register plan, both variants: 8 accumulators plus 6
		// operand registers (batch: 2 A vectors + 4 B scalars; pipelined:
		// double-buffered 2×2 A vectors + 2×1 B vectors).
		return 14
	}
	return 0
}

// normalized applies the Pipelined defaults to unset schedule thresholds.
func (c Contract) normalized() Contract {
	if c.Pipelined {
		if c.MinLoadUseDist == 0 {
			c.MinLoadUseDist = 2
		}
		if c.MaxLoadRun == 0 {
			c.MaxLoadRun = 2
		}
		if c.MaxLoadPressure == 0 {
			c.MaxLoadPressure = 0.9
		}
	}
	return c
}

// Validate checks the contract's own consistency (not the program's).
func (c Contract) Validate() error {
	if c.Elem != 4 && c.Elem != 8 {
		return fmt.Errorf("isacheck: contract elem %d not 4 or 8", c.Elem)
	}
	if c.MR < 1 || c.NR < 1 || c.KC < 1 {
		return fmt.Errorf("isacheck: contract tile %dx%d kc=%d invalid", c.MR, c.NR, c.KC)
	}
	if c.LDA < 1 || c.LDB < 1 || c.LDC < 1 {
		return fmt.Errorf("isacheck: contract leading dimensions invalid")
	}
	if c.Kind == KindNTPack {
		if c.NRTotal < 1 || c.JOff < 0 || c.JOff+c.NR > c.NRTotal {
			return fmt.Errorf("isacheck: ntpack contract joff=%d nb=%d nrtotal=%d inconsistent",
				c.JOff, c.NR, c.NRTotal)
		}
	}
	if c.Kind == KindEdge && (c.MR != 8 || c.NR != 4) {
		return fmt.Errorf("isacheck: edge contract must declare the 8x4 tile, got %dx%d", c.MR, c.NR)
	}
	return nil
}

// Finding is one verified defect: which pass owns it, what is wrong, and the
// element offsets or instruction indices that witness it (sorted, truncated
// to a readable prefix by the reporter, never by the analysis).
type Finding struct {
	Pass    string `json:"pass"`
	Msg     string `json:"msg"`
	Offsets []int  `json:"offsets,omitempty"`
}

func (f Finding) String() string {
	if len(f.Offsets) == 0 {
		return fmt.Sprintf("[%s] %s", f.Pass, f.Msg)
	}
	const maxShown = 8
	offs := f.Offsets
	suffix := ""
	if len(offs) > maxShown {
		offs = offs[:maxShown]
		suffix = fmt.Sprintf(" …(+%d more)", len(f.Offsets)-maxShown)
	}
	return fmt.Sprintf("[%s] %s at %v%s", f.Pass, f.Msg, offs, suffix)
}
