package kernels

import (
	"libshalom/internal/isa"
	"libshalom/internal/isacheck"
)

// The LibShalom kernel catalogue: every generator self-registers with the
// contract it claims, so `shalom-bench lint` and the verifier tests see
// each emitted program without a hand-maintained list. KC values are
// representative panel depths (any multiple of the lane count produces the
// same schedule pattern); the schedule thresholds are pinned to the
// measured steady-state metrics of these programs with a little headroom,
// so a generator regression that batches loads or shortens a load→use
// distance trips the depdist/pressure passes.
func init() {
	// Main outer-product micro-kernel, FP32 7×12 (§5.2's Eq. 1 optimum),
	// pipelined schedule, consuming a packed B (LDB = NR).
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/main-7x12-f32",
		Family:    "libshalom",
		SymFamily: "main-pipelined-f32",
		SymShape:  isacheck.Shape{MR: 7, NR: 12, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 4,
			MR: 7, NR: 12, KC: 8,
			LDA: 8, LDB: 12, LDC: 12,
			Accumulate: true,
			Pipelined:  true,
			// Once per lane-block the kernel reloads all MR A registers,
			// alternating load/FMA; a window catching that burst sees
			// ~50% loads — exactly Phytium's 2-of-4 issue-slot capacity.
			// Measured worst window: 1.12 (9 loads / capacity 8).
			MaxLoadPressure: 1.15,
		},
		Build: func() *isa.Program {
			return BuildMain(MainSpec{Elem: 4, MR: 7, NR: 12, KC: 8,
				LDA: 8, LDB: 12, LDC: 12, Accumulate: true, Schedule: Pipelined})
		},
	})
	// The same kernel with the folded B packing of §5.3: the consumed B
	// sliver is stored into Bc between the FMAs.
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/packmain-7x12-f32",
		Family:    "libshalom",
		SymFamily: "packmain-pipelined-f32",
		SymShape:  isacheck.Shape{MR: 7, NR: 12, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 4,
			MR: 7, NR: 12, KC: 8,
			LDA: 8, LDB: 12, LDC: 12,
			Accumulate: true, PackB: true,
			Pipelined: true,
			// The folded Bc stores spread the A-reload burst out a little;
			// measured worst window on Phytium is exactly saturated (1.00).
			MaxLoadPressure: 1.05,
		},
		Build: func() *isa.Program {
			return BuildMain(MainSpec{Elem: 4, MR: 7, NR: 12, KC: 8,
				LDA: 8, LDB: 12, LDC: 12, Accumulate: true, PackB: true, Schedule: Pipelined})
		},
	})
	// FP64 main kernel, 7×6 (two lanes per register, Eq. 1's FP64 optimum).
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/main-7x6-f64",
		Family:    "libshalom",
		SymFamily: "main-pipelined-f64",
		SymShape:  isacheck.Shape{MR: 7, NR: 6, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 8,
			MR: 7, NR: 6, KC: 8,
			LDA: 8, LDB: 6, LDC: 6,
			Accumulate: true,
			Pipelined:  true,
			// Same A-reload burst as the FP32 main kernel (measured 1.12).
			MaxLoadPressure: 1.15,
		},
		Build: func() *isa.Program {
			return BuildMain(MainSpec{Elem: 8, MR: 7, NR: 6, KC: 8,
				LDA: 8, LDB: 6, LDC: 6, Accumulate: true, Schedule: Pipelined})
		},
	})
	// NT-mode inner-product packing micro-kernel (Fig 5, Alg 3), FP32 7×3,
	// filling columns 0–2 of a KC×12 Bc panel. An inner-product kernel
	// legitimately batches its MR+NB operand loads at the top of each
	// K-block — the §5.4 pipelined discipline does not apply — so the
	// contract declares the honest batched-load ceilings instead.
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/ntpack-7x3-f32",
		Family:    "libshalom",
		SymFamily: "ntpack-f32",
		SymShape:  isacheck.Shape{MR: 7, NR: 3, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindNTPack, Elem: 4,
			MR: 7, NR: 3, KC: 8,
			LDA: 8, LDB: 8, LDC: 12,
			NRTotal: 12, JOff: 0,
			MinLoadUseDist:  1,
			MaxLoadRun:      10,
			MaxLoadPressure: 2.0,
		},
		Build: func() *isa.Program {
			return BuildNTPack(NTPackSpec{Elem: 4, MR: 7, NB: 3, KC: 8,
				LDA: 8, LDBT: 8, LDC: 12, NRTotal: 12, JOff: 0})
		},
	})
	// FP64 NT packing kernel filling a KC×6 panel.
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/ntpack-7x3-f64",
		Family:    "libshalom",
		SymFamily: "ntpack-f64",
		SymShape:  isacheck.Shape{MR: 7, NR: 3, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindNTPack, Elem: 8,
			MR: 7, NR: 3, KC: 8,
			LDA: 8, LDB: 8, LDC: 6,
			NRTotal: 6, JOff: 0,
			MinLoadUseDist:  1,
			MaxLoadRun:      10,
			MaxLoadPressure: 2.0,
		},
		Build: func() *isa.Program {
			return BuildNTPack(NTPackSpec{Elem: 8, MR: 7, NB: 3, KC: 8,
				LDA: 8, LDBT: 8, LDC: 6, NRTotal: 6, JOff: 0})
		},
	})
	// The 8×4 edge kernel in LibShalom's pipelined arrangement (Fig 6b):
	// the §5.4 claim this verifier makes static.
	isacheck.Register(isacheck.Entry{
		Name:      "libshalom/edge-8x4-pipelined-f32",
		Family:    "libshalom",
		SymFamily: "edge-pipelined-f32",
		SymShape:  isacheck.Shape{MR: 8, NR: 4, KC: 16},
		Contract: isacheck.Contract{
			Kind: isacheck.KindEdge, Elem: 4,
			MR: 8, NR: 4, KC: 16,
			LDA: 8, LDB: 4, LDC: 4,
			Pipelined: true,
		},
		Build: func() *isa.Program {
			return BuildEdge8x4(EdgeSpec{Elem: 4, KC: 16,
				LDAp: 8, LDB: 4, LDC: 4, Schedule: Pipelined})
		},
	})
}
