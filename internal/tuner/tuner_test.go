package tuner

import (
	"testing"

	"libshalom/internal/analytic"
	"libshalom/internal/platform"
)

// TestAnalyticTileIsSearchOptimal: the paper's implicit claim — the
// closed-form Eq. 1–2 answer should be at (or within 1% of) the optimum an
// exhaustive search finds on every modeled platform.
func TestAnalyticTileIsSearchOptimal(t *testing.T) {
	for _, p := range platform.All() {
		for _, eb := range []int{4, 8} {
			r := SearchTile(p, eb)
			if r.Analytic.GFLOPS < r.Best.GFLOPS*0.99 {
				t.Errorf("%s elem %d: analytic %dx%d (%.1f GF) trails searched %dx%d (%.1f GF)",
					p.Name, eb, r.Analytic.MR, r.Analytic.NR, r.Analytic.GFLOPS,
					r.Best.MR, r.Best.NR, r.Best.GFLOPS)
			}
		}
	}
}

// TestSearchReachesPipePeak: the best tile must sustain the FMA pipes on
// every platform (this is what the 7×12 design is for).
func TestSearchReachesPipePeak(t *testing.T) {
	for _, p := range platform.All() {
		r := SearchTile(p, 4)
		peak := p.PeakCoreGFLOPS(4)
		if r.Best.GFLOPS < 0.95*peak {
			t.Errorf("%s: best tile only %.1f of %.1f GF", p.Name, r.Best.GFLOPS, peak)
		}
		if r.Best.GFLOPS > peak*1.0001 {
			t.Errorf("%s: best tile exceeds peak (%.2f > %.2f)", p.Name, r.Best.GFLOPS, peak)
		}
	}
}

// TestTinyTilesLoseOnLatencyBoundPlatforms: a 1×lanes tile has a single
// accumulator chain and cannot cover the FMA latency — the search must rank
// it clearly below the analytic tile.
func TestTinyTilesLose(t *testing.T) {
	r := SearchTile(platform.Phytium2000(), 4) // FMA latency 7, 1 pipe
	var tiny *Candidate
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.MR == 1 && c.NR == 4 {
			tiny = c
		}
	}
	if tiny == nil {
		t.Fatal("1x4 tile missing from search space")
	}
	if tiny.GFLOPS >= r.Analytic.GFLOPS*0.8 {
		t.Fatalf("1x4 tile (%.1f GF) not clearly below 7x12 (%.1f GF)", tiny.GFLOPS, r.Analytic.GFLOPS)
	}
}

func TestSearchSpaceMatchesConstraint(t *testing.T) {
	r := SearchTile(platform.KP920(), 8)
	for _, c := range r.Candidates {
		if !analytic.Feasible(c.MR, c.NR, 2, analytic.RegisterBudget) {
			t.Fatalf("infeasible tile %dx%d in search space", c.MR, c.NR)
		}
	}
	if len(r.Candidates) < 20 {
		t.Fatalf("search space suspiciously small: %d", len(r.Candidates))
	}
	// Sorted descending.
	for i := 1; i < len(r.Candidates); i++ {
		if r.Candidates[i].GFLOPS > r.Candidates[i-1].GFLOPS+1e-9 {
			t.Fatal("candidates not sorted by throughput")
		}
	}
}

// A restricted search is the full search filtered: Enumerate with an admit
// predicate returns exactly the admitted tiles of SearchTile, in the same
// order.
func TestEnumerateAdmitFiltersSearchOrder(t *testing.T) {
	p := platform.KP920()
	admit := func(mr, nr int) bool { return mr <= 7 && nr <= 12 }
	var want []Candidate
	for _, c := range SearchTile(p, 4).Candidates {
		if admit(c.MR, c.NR) {
			want = append(want, c)
		}
	}
	got := Enumerate(p, 4, admit)
	if len(got) != len(want) {
		t.Fatalf("Enumerate admitted %d tiles, the filtered search has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: Enumerate %+v, filtered search %+v", i, got[i], want[i])
		}
	}
}
