package autotune

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"libshalom/internal/analytic"
	"libshalom/internal/guard"
	"libshalom/internal/isa"
	"libshalom/internal/isacheck"
	"libshalom/internal/kernels"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
	"libshalom/internal/tuner"
	"libshalom/internal/vexec"
)

// candidate is one tuned-tile candidate: the register tile and panel depth,
// its minted kernel identity, and its modeled steady-state throughput on
// the target platform.
type candidate struct {
	MR, NR, KC int
	Kernel     string
	// GFLOPS is the uarch scoreboard model's steady-state throughput with
	// L1-resident operands — the same figure of merit tuner.SearchTile uses.
	GFLOPS float64
}

// searchResult is one completed class search.
type searchResult struct {
	// Incumbent is the tile currently serving the class — the installed
	// override if one exists (e.g. an operator-seeded detuned tile, or a
	// previous promotion), otherwise the Eq. 1–2 analytic solution —
	// evaluated through the same model as the candidates.
	Incumbent candidate
	// Candidates are every feasible tile inside the generator family's
	// proven symbolic domain, sorted by modeled throughput descending.
	Candidates []candidate
}

// familyFor names the symbolic generator family a tuned main kernel of an
// element size must prove membership in.
func familyFor(elemBytes int) string {
	if elemBytes == 8 {
		return "main-pipelined-f64"
	}
	return "main-pipelined-f32"
}

// mainMaxLoadPressure is the pressure ceiling the registered pipelined main
// entries claim (measured worst window 1.12 on Phytium, pinned at 1.15):
// a tuned candidate is held to the same schedule discipline as the
// hand-registered catalogue.
const mainMaxLoadPressure = 1.15

// inRange reports whether v lies on the range's lattice (Step 0 means 1).
func inRange(v int, r isacheck.Range) bool {
	step := r.Step
	if step == 0 {
		step = 1
	}
	return v >= r.Min && v <= r.Max && (v-r.Min)%step == 0
}

// kernelTag mints the tuned kernel identity string recorded in overrides,
// demotion history, and journal records.
func kernelTag(mr, nr, kc int) string {
	return fmt.Sprintf("tuned-%dx%d-kc%d-pipelined", mr, nr, kc)
}

// search enumerates and scores every candidate tile for one (element size,
// shape class) key: tuner.Enumerate admitting only the generator family's
// symbolic domain (which lies inside the Eq. 1 space the tuner walks) —
// only tiles the family proof quantifies over are admissible, because
// prove will demand membership.
func search(p *platform.Platform, elemBytes int, class telemetry.ShapeClass) searchResult {
	lanes := 16 / elemBytes
	fam, _ := isacheck.FamilyByName(familyFor(elemBytes))

	// Panel depth: the deepest KC the family domain admits that does not
	// exceed the platform's cache-derived blocking (it never does today —
	// analytic KC floors at 32, the domains top out at 16 — but the clamp
	// keeps the choice honest if either side moves).
	blk := analytic.BlockingFor(p, elemBytes)
	kc := fam.Domain.KC.Max
	for kc > fam.Domain.KC.Min && kc > blk.KC {
		kc -= fam.Domain.KC.Step
	}

	var r searchResult
	inDomain := func(mr, nr int) bool { return inRange(mr, fam.Domain.MR) && inRange(nr, fam.Domain.NR) }
	for _, c := range tuner.Enumerate(p, elemBytes, inDomain) {
		r.Candidates = append(r.Candidates, candidate{
			MR: c.MR, NR: c.NR, KC: kc,
			Kernel: kernelTag(c.MR, c.NR, kc),
			GFLOPS: c.GFLOPS,
		})
	}

	// The incumbent may be any installed tile; an infeasible one scores 0.
	eval := func(mr, nr int) float64 {
		if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
			return 0
		}
		return tuner.TileGFLOPS(p, elemBytes, mr, nr)
	}
	if ov, ok := guard.OverrideFor(elemBytes, uint8(class)); ok {
		r.Incumbent = candidate{
			MR: ov.MR, NR: ov.NR, KC: ov.KC,
			Kernel: ov.Kernel,
			GFLOPS: eval(ov.MR, ov.NR),
		}
	} else {
		at := analytic.SolveForElem(elemBytes)
		r.Incumbent = candidate{
			MR: at.MR, NR: at.NR, KC: blk.KC,
			Kernel: fmt.Sprintf("analytic-%dx%d", at.MR, at.NR),
			GFLOPS: eval(at.MR, at.NR),
		}
	}
	return r
}

// prove runs the full admission gate on one candidate — nothing serves
// traffic without passing all of it:
//
//  1. family-domain membership: the tile must lie inside the symbolic
//     domain the family proof quantifies over;
//  2. the isacheck passes (dataflow, footprint, depdist, pressure, tiling)
//     against the family-derived contract with the catalogue's pipelined
//     schedule thresholds, plus the memoized symbolic family proof;
//  3. vexec-vs-reference numeric validation: the exact program that would
//     serve, executed functionally on pseudorandom operands and compared
//     element-wise against the portable reference (kernels.GEMMRef)
//     within the canary tolerance, twice with independent seeds.
//
// A nil error means the candidate is admissible for canary installation.
func prove(p *platform.Platform, elemBytes int, c candidate) error {
	fam, ok := isacheck.FamilyByName(familyFor(elemBytes))
	if !ok {
		return fmt.Errorf("autotune: family %s not registered", familyFor(elemBytes))
	}
	shape := isacheck.Shape{MR: c.MR, NR: c.NR, KC: c.KC}
	if !inRange(c.MR, fam.Domain.MR) || !inRange(c.NR, fam.Domain.NR) || !inRange(c.KC, fam.Domain.KC) {
		return fmt.Errorf("autotune: tile %dx%d kc %d outside family %s domain",
			c.MR, c.NR, c.KC, fam.Name)
	}

	contract := fam.ContractAt(shape)
	contract.Pipelined = true
	contract.MaxLoadPressure = mainMaxLoadPressure
	entry := isacheck.Entry{
		Name:      "autotune/" + c.Kernel,
		Family:    "autotune",
		SymFamily: fam.Name,
		SymShape:  shape,
		Contract:  contract,
		Build:     func() *isa.Program { return fam.BuildAt(shape) },
	}
	kr := isacheck.Run(entry, p)
	if !kr.OK {
		fs := kr.Findings()
		if len(fs) > 0 {
			return fmt.Errorf("autotune: isacheck rejected %s: %s", c.Kernel, fs[0].Msg)
		}
		return fmt.Errorf("autotune: isacheck rejected %s", c.Kernel)
	}

	prog := fam.BuildAt(shape)
	for seed := uint64(1); seed <= 2; seed++ {
		var err error
		if elemBytes == 8 {
			err = validate(prog, vexec.RunF64, c, seed)
		} else {
			err = validate(prog, vexec.RunF32, c, seed)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validate executes prog functionally through run, the precision's vexec
// entry point, on seeded pseudorandom operands and compares against the
// reference accumulation C += A·B (the family contract is Accumulate).
// Stream order mirrors BuildMain: A, B, C.
func validate[T kernels.Float](prog *isa.Program, run func(*isa.Program, ...[]T) error, c candidate, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	mr, nr, kc := c.MR, c.NR, c.KC
	a := randOperand[T](rng, mr*kc)
	b := randOperand[T](rng, kc*nr)
	cb := randOperand[T](rng, mr*nr)
	want := slices.Clone(cb)
	kernels.GEMMRef(false, false, mr, nr, kc, 1, a, kc, b, nr, 1, want, nr)
	if err := run(prog, a, b, cb); err != nil {
		return fmt.Errorf("autotune: vexec %s: %w", c.Kernel, err)
	}
	if !guard.Agrees(cb, nr, want, nr, mr, nr, guard.Tolerance(kernels.ElemBytes[T]())) {
		return fmt.Errorf("autotune: %s disagrees with reference (seed %d)", c.Kernel, seed)
	}
	return nil
}

// randOperand draws n elements uniformly from [-1, 1).
func randOperand[T kernels.Float](rng *rand.Rand, n int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = T(rng.Float64()*2 - 1)
	}
	return v
}
