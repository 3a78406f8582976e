// Autotune example: the paper's future-work direction (§10) — open up the
// kernel parameters to a search instead of fixing the analytic optimum.
//
// Part one sweeps every feasible (mr, nr) register tile through the
// instruction-level timing model on all three platforms (internal/tuner)
// and compares the empirically best tile with the analytic CMR solution of
// Eq. 1–2, demonstrating that the paper's closed-form answer is at (or
// within noise of) the optimum the search finds.
//
// Part two runs the closed loop that internal/autotune builds on that
// search: it seeds a deliberately detuned serving tile on the f32/small
// class (the state an operator misconfiguration or a stale promotion would
// leave behind), asks the engine to tune the class now, and walks the full
// lifecycle — search inside the proven generator-family domain, the
// isacheck + vexec proof gate, canary-shadowed live traffic, and the final
// promotion — printing the engine's /tune-style report at each state.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"libshalom/internal/analytic"
	"libshalom/internal/autotune"
	"libshalom/internal/core"
	"libshalom/internal/guard"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
	"libshalom/internal/tuner"
)

func main() {
	const elem = 4 // FP32
	analyticTile := analytic.SolveForElem(elem)
	fmt.Printf("analytic optimum (Eq. 1-2): %dx%d, CMR %.2f\n\n", analyticTile.MR, analyticTile.NR, analyticTile.CMR)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "platform\tbest searched tile\tGFLOPS/core\tanalytic tile\tGFLOPS/core\tverdict")
	for _, p := range platform.All() {
		r := tuner.SearchTile(p, elem)
		verdict := "analytic tile optimal"
		if r.Best.GFLOPS > r.Analytic.GFLOPS*1.001 {
			verdict = fmt.Sprintf("search wins by %.1f%%", 100*(r.Best.GFLOPS/r.Analytic.GFLOPS-1))
		}
		fmt.Fprintf(tw, "%s\t%dx%d\t%.1f\t%dx%d\t%.1f\t%s\n",
			p.Name, r.Best.MR, r.Best.NR, r.Best.GFLOPS,
			r.Analytic.MR, r.Analytic.NR, r.Analytic.GFLOPS, verdict)
	}
	tw.Flush()

	// Show the top of one platform's ranking to make the tradeoff visible.
	fmt.Println("\ntop five tiles on Kunpeng 920 (modeled):")
	r := tuner.SearchTile(platform.KP920(), elem)
	for i, c := range r.Candidates {
		if i == 5 {
			break
		}
		fmt.Printf("  %2dx%-2d  %6.1f GFLOPS  (CMR %.2f)\n", c.MR, c.NR, c.GFLOPS, c.CMR)
	}

	closedLoop()
}

// closedLoop demos the traffic-adaptive autotuner end to end against a
// deliberately detuned f32/small serving tile.
func closedLoop() {
	plat := platform.KP920()
	const small = uint8(telemetry.ShapeSmall)

	fmt.Println("\n--- closed-loop tuning of a detuned class (internal/autotune) ---")

	// Seed the bad state: a 1x4 kc 8 serving tile on f32/small — the same
	// seed shalom-serve -detune-class installs for the smoke test.
	path := guard.MintOverridePath(4, "small")
	guard.SetOverride(4, small, guard.TileOverride{
		MR: 1, NR: 4, KC: 8, Kernel: "detuned-1x4", Path: path,
	})
	fmt.Println("seeded f32/small with a detuned 1x4 kc 8 serving tile")

	// Canary every small-class call so the demo settles in a handful of
	// GEMMs instead of a stride-sampled storm.
	prev := guard.Configure(guard.Config{CanaryStride: 1})
	defer guard.Configure(prev)

	tel := telemetry.New(telemetry.Options{})
	eng := autotune.New(autotune.Config{Recorder: tel, Platform: plat})
	if err := eng.TuneNow("f32", "small"); err != nil {
		fmt.Fprintln(os.Stderr, "autotune:", err)
		os.Exit(1)
	}
	report := func() {
		rep := eng.Report()
		for _, c := range rep.Classes {
			fmt.Printf("  %s/%s: %-9s %s (incumbent %s %.1f -> candidate %.1f GFLOPS modeled)\n",
				c.Precision, c.ShapeClass, c.State, c.Kernel,
				c.IncumbentKernel, c.IncumbentGFLOPS, c.CandidateGFLOPS)
		}
	}
	fmt.Println("TuneNow: searched the proven family domain, proof gate passed, canary installed")
	report()

	// Live traffic: every canaried call runs the tuned tile shadowed by the
	// reference path; agreement closes the breaker at the canary target.
	m, n, k := telemetry.RepresentativeShape(telemetry.ShapeSmall)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	drv := core.NewDriver(core.Config{Plat: plat, Threads: 1, NumericGuard: true, Tel: tel})
	defer drv.Close()
	calls := guard.Current().CanaryTarget + 2
	for i := 0; i < calls; i++ {
		c := make([]float32, m*n)
		if err := core.SGEMM(drv, core.NN, m, n, k, 1, a, k, b, n, 0, c, n); err != nil {
			fmt.Fprintln(os.Stderr, "SGEMM:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("drove %d small-class GEMMs through the canary shadow — all agreed\n", calls)

	// The next loop tick sees the closed breaker and promotes.
	eng.Step()
	report()

	snap := tel.Snapshot()
	events := func(event string) uint64 { return uint64(snap.Metric("libshalom_autotune_events_total", event)) }
	fmt.Printf("lifecycle events: search %d, proved %d, canary %d, promoted %d, reverted %d\n",
		events("search"), events("proved"), events("canary"), events("promoted"), events("reverted"))

	guard.Reset() // leave no override behind for other examples sharing the process
}
