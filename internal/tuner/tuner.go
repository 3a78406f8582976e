// Package tuner implements the paper's §10 future-work direction: opening
// the kernel parameters to a search instead of fixing the closed-form
// analytic optimum. The search space is every register tile feasible under
// Eq. 1, evaluated through the instruction-level scoreboard model on the
// target platform; the result can be compared against the Eq. 1–2 answer
// (tests assert the analytic tile is at or within noise of the searched
// optimum on every modeled platform, which is the paper's implicit claim).
package tuner

import (
	"sort"

	"libshalom/internal/analytic"
	"libshalom/internal/isa"
	"libshalom/internal/kernels"
	"libshalom/internal/platform"
	"libshalom/internal/uarch"
)

// Candidate is one evaluated register tile.
type Candidate struct {
	MR, NR int
	// GFLOPS is the modeled steady-state throughput of the main micro-
	// kernel on the target platform with L1-resident operands.
	GFLOPS float64
	// CMR is the analytic objective of Eq. 2 for comparison.
	CMR float64
}

// Result is a completed search.
type Result struct {
	Best       Candidate
	Analytic   Candidate // the Eq. 1–2 tile evaluated the same way
	Candidates []Candidate
}

// TileGFLOPS scores one mr×nr register tile: the modeled steady-state
// throughput of the pipelined main micro-kernel on the platform's
// scoreboard, with L1-resident operands. Feasibility is the caller's
// concern.
func TileGFLOPS(p *platform.Platform, elemBytes, mr, nr int) float64 {
	lanes := 16 / elemBytes
	build := func(kc int) *isa.Program {
		if kc%lanes != 0 {
			kc += lanes - kc%lanes
		}
		return kernels.BuildMain(kernels.MainSpec{
			Elem: elemBytes, MR: mr, NR: nr, KC: kc,
			LDA: kc, LDB: nr, LDC: nr, Schedule: kernels.Pipelined,
		})
	}
	cpi := uarch.SteadyStateCPI(build, uarch.FromPlatform(p), 32, 64) // cycles per K step
	return 2 * float64(mr) * float64(nr) / cpi * p.FreqGHz
}

// SearchTile evaluates every feasible register tile for the platform and
// element size and returns the candidates sorted by modeled throughput
// (descending), with ties broken toward the higher-CMR tile — the analytic
// objective acts as the secondary criterion exactly as §5.2 motivates.
func SearchTile(p *platform.Platform, elemBytes int) Result {
	lanes := 16 / elemBytes
	eval := func(mr, nr int) float64 { return TileGFLOPS(p, elemBytes, mr, nr) }

	var r Result
	for mr := 1; mr <= 16; mr++ {
		for nr := lanes; nr <= 16*lanes; nr += lanes {
			if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
				continue
			}
			r.Candidates = append(r.Candidates, Candidate{
				MR: mr, NR: nr, GFLOPS: eval(mr, nr), CMR: analytic.CMR(mr, nr),
			})
		}
	}
	sort.Slice(r.Candidates, func(i, j int) bool {
		a, b := r.Candidates[i], r.Candidates[j]
		if a.GFLOPS != b.GFLOPS {
			return a.GFLOPS > b.GFLOPS
		}
		if a.CMR != b.CMR {
			return a.CMR > b.CMR
		}
		if a.NR != b.NR {
			return a.NR > b.NR
		}
		return a.MR > b.MR
	})
	r.Best = r.Candidates[0]

	at := analytic.SolveForElem(elemBytes)
	r.Analytic = Candidate{MR: at.MR, NR: at.NR, GFLOPS: eval(at.MR, at.NR), CMR: at.CMR}
	return r
}
