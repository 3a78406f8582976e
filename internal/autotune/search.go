package autotune

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"libshalom/internal/analytic"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/isa"
	"libshalom/internal/isacheck"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
	"libshalom/internal/tuner"
	"libshalom/internal/vexec"
)

// Candidate is one tuned-tile candidate: the register tile and panel depth,
// its minted kernel identity, and its modeled steady-state throughput on
// the target platform.
type Candidate struct {
	MR, NR, KC int
	Kernel     string
	// GFLOPS is the uarch scoreboard model's steady-state throughput with
	// L1-resident operands — the same figure of merit tuner.SearchTile uses.
	GFLOPS float64
}

// SearchResult is one completed class search.
type SearchResult struct {
	// Incumbent is the tile currently serving the class — the installed
	// override if one exists (e.g. an operator-seeded detuned tile, or a
	// previous promotion), otherwise the Eq. 1–2 analytic solution —
	// evaluated through the same model as the candidates.
	Incumbent Candidate
	// Candidates are every feasible tile inside the generator family's
	// proven symbolic domain, sorted by modeled throughput descending.
	Candidates []Candidate
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

// Search enumerates and scores every candidate tile for one (element size,
// shape class) key. The space is the intersection of Eq. 1 feasibility and
// the generator family's symbolic domain — only tiles the family proof
// quantifies over are admissible, because Prove will demand membership.
func Search(p *platform.Platform, elemBytes int, class telemetry.ShapeClass) SearchResult {
	lanes := 16 / elemBytes
	fam, _ := isacheck.FamilyByName(familyFor(elemBytes))

	// Search's rule on top of the shared scoring: an infeasible tile
	// scores 0.
	eval := func(mr, nr int) float64 {
		if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
			return 0
		}
		return tuner.TileGFLOPS(p, elemBytes, mr, nr)
	}

	// Panel depth: the deepest KC the family domain admits that does not
	// exceed the platform's cache-derived blocking (it never does today —
	// analytic KC floors at 32, the domains top out at 16 — but the clamp
	// keeps the choice honest if either side moves).
	blk := analytic.BlockingFor(p, elemBytes)
	kc := fam.Domain.KC.Max
	for kc > fam.Domain.KC.Min && kc > blk.KC {
		kc -= fam.Domain.KC.Step
	}

	var r SearchResult
	nrr, mrr := fam.Domain.NR, fam.Domain.MR
	for mr := mrr.Min; mr <= mrr.Max; mr++ {
		if !inRange(mr, mrr) {
			continue
		}
		step := nrr.Step
		if step == 0 {
			step = 1
		}
		for nr := nrr.Min; nr <= nrr.Max; nr += step {
			if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
				continue
			}
			r.Candidates = append(r.Candidates, Candidate{
				MR: mr, NR: nr, KC: kc,
				Kernel: kernelTag(mr, nr, kc),
				GFLOPS: eval(mr, nr),
			})
		}
	}
	sort.Slice(r.Candidates, func(i, j int) bool {
		a, b := r.Candidates[i], r.Candidates[j]
		if a.GFLOPS != b.GFLOPS {
			return a.GFLOPS > b.GFLOPS
		}
		if ca, cb := analytic.CMR(a.MR, a.NR), analytic.CMR(b.MR, b.NR); ca != cb {
			return ca > cb
		}
		if a.NR != b.NR {
			return a.NR > b.NR
		}
		return a.MR > b.MR
	})

	if ov, ok := guard.OverrideFor(elemBytes, uint8(class)); ok {
		r.Incumbent = Candidate{
			MR: ov.MR, NR: ov.NR, KC: ov.KC,
			Kernel: ov.Kernel,
			GFLOPS: eval(ov.MR, ov.NR),
		}
	} else {
		at := analytic.SolveForElem(elemBytes)
		r.Incumbent = Candidate{
			MR: at.MR, NR: at.NR, KC: blk.KC,
			Kernel: fmt.Sprintf("analytic-%dx%d", at.MR, at.NR),
			GFLOPS: eval(at.MR, at.NR),
		}
	}
	return r
}

// Prove runs the full admission gate on one candidate — nothing serves
// traffic without passing all of it:
//
//  1. family-domain membership: the tile must lie inside the symbolic
//     domain the family proof quantifies over;
//  2. the isacheck passes (dataflow, footprint, depdist, pressure, tiling)
//     against the family-derived contract with the catalogue's pipelined
//     schedule thresholds, plus the memoized symbolic family proof;
//  3. vexec-vs-reference numeric validation: the exact program that would
//     serve, executed functionally on pseudorandom operands and compared
//     element-wise against a straightforward reference within the canary
//     tolerance, twice with independent seeds.
//
// A nil error means the candidate is admissible for canary installation.
func Prove(p *platform.Platform, elemBytes int, c Candidate) error {
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
		if err := validate(prog, elemBytes, c, seed); err != nil {
			return err
		}
	}
	return nil
}

// validate executes prog functionally on seeded pseudorandom operands and
// compares against the reference accumulation C += A·B (the family contract
// is Accumulate). Stream order mirrors BuildMain: A, B, C.
func validate(prog *isa.Program, elemBytes int, c Candidate, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	mr, nr, kc := c.MR, c.NR, c.KC
	if elemBytes == 8 {
		a := randF64(rng, mr*kc)
		b := randF64(rng, kc*nr)
		cb := randF64(rng, mr*nr)
		want := append([]float64(nil), cb...)
		for i := 0; i < mr; i++ {
			for j := 0; j < nr; j++ {
				for k := 0; k < kc; k++ {
					want[i*nr+j] += a[i*kc+k] * b[k*nr+j]
				}
			}
		}
		if err := vexec.RunF64(prog, a, b, cb); err != nil {
			return fmt.Errorf("autotune: vexec %s: %w", c.Kernel, err)
		}
		if !heal.Agrees(cb, nr, want, nr, mr, nr, heal.Tolerance(8)) {
			return fmt.Errorf("autotune: %s disagrees with reference (seed %d)", c.Kernel, seed)
		}
		return nil
	}
	a := randF32(rng, mr*kc)
	b := randF32(rng, kc*nr)
	cb := randF32(rng, mr*nr)
	want := append([]float32(nil), cb...)
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			var acc float32
			for k := 0; k < kc; k++ {
				acc += a[i*kc+k] * b[k*nr+j]
			}
			want[i*nr+j] += acc
		}
	}
	if err := vexec.RunF32(prog, a, b, cb); err != nil {
		return fmt.Errorf("autotune: vexec %s: %w", c.Kernel, err)
	}
	if !heal.Agrees(cb, nr, want, nr, mr, nr, heal.Tolerance(4)) {
		return fmt.Errorf("autotune: %s disagrees with reference (seed %d)", c.Kernel, seed)
	}
	return nil
}

func randF32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}

func randF64(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}
