package core

import (
	"runtime"
	"strings"
	"testing"

	"libshalom/internal/analytic"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
)

func TestPlanSmallNNSkipsPacking(t *testing.T) {
	p := PlanFor(testDriver(t, Config{Plat: platform.Phytium2000()}), NN, 32, 32, 32, 4)
	if p.BStrategy != pack.NoPack {
		t.Fatalf("small NN plan packs B: %v", p.BStrategy)
	}
	if p.Tile.MR != 7 || p.Tile.NR != 12 {
		t.Fatal("plan tile wrong")
	}
	if p.Threads != 1 {
		t.Fatal("small plan must be single-threaded")
	}
	if p.Depth != pack.DepthCurrent {
		t.Fatal("LLC-resident B must use t=0")
	}
}

func TestPlanNTAlwaysPacks(t *testing.T) {
	p := PlanFor(testDriver(t, Config{}), NT, 8, 8, 8, 4)
	if p.BStrategy != pack.PackOverlap {
		t.Fatal("NT must always pack B (§4.3)")
	}
}

func TestPlanLargeNNPacksWithOverlap(t *testing.T) {
	p := PlanFor(testDriver(t, Config{Plat: platform.Phytium2000()}), NN, 64, 4096, 4096, 4)
	if p.BStrategy != pack.PackOverlap {
		t.Fatal("beyond-L1 B must overlap-pack")
	}
	// 4096×4096 FP32 = 64 MB > Phytium LLC (2MB shared L2) → lookahead.
	if p.Depth != pack.DepthAhead {
		t.Fatal("beyond-LLC B must use t=1 (§5.3.2)")
	}
}

func TestPlanTransAGathers(t *testing.T) {
	if !PlanFor(testDriver(t, Config{}), TN, 16, 16, 16, 4).PackA {
		t.Fatal("TN plan must gather A")
	}
	if PlanFor(testDriver(t, Config{}), NT, 16, 16, 16, 4).PackA {
		t.Fatal("NT plan must not gather A")
	}
}

func TestPlanParallelPartition(t *testing.T) {
	p := PlanFor(testDriver(t, Config{Threads: 64}), NT, 32, 10240, 5000, 4)
	if p.Threads != 64 {
		t.Fatalf("parallel plan reports %d threads", p.Threads)
	}
	if p.Partition.TN < p.Partition.TM {
		t.Fatalf("N-dominant shape partitioned %dx%d", p.Partition.TM, p.Partition.TN)
	}
	if p.ThreadBlockM != 32 || p.ThreadBlockN >= 10240 {
		t.Fatalf("thread block %dx%d implausible", p.ThreadBlockM, p.ThreadBlockN)
	}
	// A thread's B slice can fall under the L1 threshold even when the
	// whole B does not — the per-thread decision is re-evaluated.
	if p.ThreadBStrategy != pack.ShouldPackBNT() {
		t.Fatal("NT per-thread strategy must still pack")
	}
}

func TestPlanPerThreadDecisionDiffers(t *testing.T) {
	// NN with a B that exceeds L1 globally but fits per thread.
	plat := platform.KP920() // 64KB L1
	// B = 256×64 FP32 = 64KB > L1? exactly 64KB → NoPack (≤). Use 128 cols.
	p := PlanFor(testDriver(t, Config{Plat: plat, Threads: 16}), NN, 256, 128, 256, 4)
	if p.BStrategy == pack.NoPack {
		t.Skip("global B unexpectedly fits L1")
	}
	if p.ThreadBlockN >= 128 {
		t.Fatalf("partition did not split N: %+v", p.Partition)
	}
	if p.ThreadBStrategy != pack.NoPack {
		t.Fatalf("per-thread B slice (%dx256) should fit L1", p.ThreadBlockN)
	}
}

func TestPlanString(t *testing.T) {
	s := PlanFor(testDriver(t, Config{Threads: 64}), NT, 64, 50176, 576, 4).String()
	for _, frag := range []string{"7x12", "overlap", "Tn=", "per-thread block"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan rendering missing %q:\n%s", frag, s)
		}
	}
	s1 := PlanFor(testDriver(t, Config{}), TN, 8, 8, 8, 8).String()
	if !strings.Contains(s1, "single-threaded") || !strings.Contains(s1, "A gathered") {
		t.Fatalf("TN plan rendering wrong:\n%s", s1)
	}
}

// The work rule: min(requested, units, ⌊flops/forkFloor⌋), never below one.
// A single-entry batch runs serially, and a batch requesting GOMAXPROCS
// workers gets between 1 and GOMAXPROCS of them.
func TestForkWidth(t *testing.T) {
	for _, c := range []struct {
		requested, units int
		flops            float64
		want             int
	}{
		{8, 64, 8 * forkFloor, 8},
		{8, 64, 3*forkFloor - 1, 2},  // the work binds
		{8, 3, 64 * forkFloor, 3},    // the units bind
		{2, 64, 64 * forkFloor, 2},   // the request binds
		{8, 64, forkFloor * 1.99, 1}, // one worker's worth stays serial
		{8, 1, 64 * forkFloor, 1},    // one unit never forks
		{0, 64, 64 * forkFloor, 1},
		{8, 0, 0, 1},
		{-3, -3, -1, 1},
	} {
		if got := forkWidth(c.requested, c.units, c.flops); got != c.want {
			t.Errorf("forkWidth(%d, %d, %g) = %d, want %d", c.requested, c.units, c.flops, got, c.want)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	entry := BatchEntry[float32]{M: 512, N: 512, K: 512}
	if got := poolWidth(procs, []BatchEntry[float32]{entry}); got != 1 {
		t.Fatalf("single-entry batch width %d, want 1", got)
	}
	many := make([]BatchEntry[float32], 10000)
	for i := range many {
		many[i] = entry
	}
	if got := poolWidth(procs, many); got < 1 || got > procs {
		t.Fatalf("batch width %d outside [1, GOMAXPROCS=%d]", got, procs)
	}
}

// split's width is a fixpoint of the rule: the partition at the width has
// exactly that many blocks, so the width, the partition's size and the
// split's pool tasks are one number.
func TestSplitIsAFixpoint(t *testing.T) {
	tile := analytic.SolveForElem(4)
	for _, m := range []int{1, 5, 7, 14, 33, 64, 256, 2048} {
		for _, n := range []int{1, 12, 13, 36, 100, 512, 4096} {
			for _, k := range []int{1, 64, 512, 4096} {
				for _, req := range []int{1, 2, 3, 4, 8, 64} {
					w, part := split(req, m, n, k, tile)
					if w < 1 || w > req && req >= 1 {
						t.Fatalf("%dx%dx%d at %d: width %d", m, n, k, req, w)
					}
					if w > 1 && (part.TM*part.TN != w || parallel.BlockCount(m, n, part, tile.MR, tile.NR) != w) {
						t.Fatalf("%dx%dx%d at %d: width %d over partition %+v", m, n, k, req, w, part)
					}
					if w2, _ := split(w, m, n, k, tile); w2 != w {
						t.Fatalf("%dx%dx%d at %d: width %d re-plans to %d", m, n, k, req, w, w2)
					}
				}
			}
		}
	}
}
