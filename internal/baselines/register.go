package baselines

import (
	"libshalom/internal/isa"
	"libshalom/internal/isacheck"
	"libshalom/internal/kernels"
)

// Baseline kernels register alongside the LibShalom catalogue so
// `shalom-bench lint` verifies them with the same footprint/tiling rigor.
// Their contracts do not claim the §5.4 pipelined discipline — the batch
// schedule is these libraries' documented behaviour (Fig 6a), not a defect
// in reproducing them — so the depdist thresholds stay unset and only the
// honest structural invariants are enforced.
func init() {
	// OpenBLAS's ARMv8 8×4 edge kernel: batch-scheduled ldp/ldr loads
	// ahead of each iteration's FMA block (Fig 6a).
	isacheck.Register(isacheck.Entry{
		Name:      "baseline/openblas-edge-8x4-batch-f32",
		Family:    "baseline",
		SymFamily: "edge-batch-f32",
		SymShape:  isacheck.Shape{MR: 8, NR: 4, KC: 16},
		Contract: isacheck.Contract{
			Kind: isacheck.KindEdge, Elem: 4,
			MR: 8, NR: 4, KC: 16,
			LDA: 8, LDB: 4, LDC: 4,
		},
		Build: func() *isa.Program {
			return kernels.BuildEdge8x4(kernels.EdgeSpec{Elem: 4, KC: 16,
				LDAp: 8, LDB: 4, LDC: 4, Schedule: kernels.Batch})
		},
	})
	// OpenBLAS's 8×4 main kernel shape in the batch schedule.
	isacheck.Register(isacheck.Entry{
		Name:      "baseline/openblas-main-8x4-f32",
		Family:    "baseline",
		SymFamily: "main-batch-f32",
		SymShape:  isacheck.Shape{MR: 8, NR: 4, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 4,
			MR: 8, NR: 4, KC: 8,
			LDA: 8, LDB: 4, LDC: 4,
			Accumulate: true,
		},
		Build: func() *isa.Program {
			return kernels.BuildMain(kernels.MainSpec{Elem: 4, MR: 8, NR: 4, KC: 8,
				LDA: 8, LDB: 4, LDC: 4, Accumulate: true, Schedule: kernels.Batch})
		},
	})
	// ARMPL's 8×8 main kernel shape (26 registers under Eq. 1).
	isacheck.Register(isacheck.Entry{
		Name:      "baseline/armpl-main-8x8-f32",
		Family:    "baseline",
		SymFamily: "main-batch-f32",
		SymShape:  isacheck.Shape{MR: 8, NR: 8, KC: 8},
		Contract: isacheck.Contract{
			Kind: isacheck.KindMain, Elem: 4,
			MR: 8, NR: 8, KC: 8,
			LDA: 8, LDB: 8, LDC: 8,
			Accumulate: true,
		},
		Build: func() *isa.Program {
			return kernels.BuildMain(kernels.MainSpec{Elem: 4, MR: 8, NR: 8, KC: 8,
				LDA: 8, LDB: 8, LDC: 8, Accumulate: true, Schedule: kernels.Batch})
		},
	})
}
