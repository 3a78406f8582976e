// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (§7–8) it regenerates the corresponding rows or
// series from this reproduction's models and prints them in a layout that
// mirrors what the paper reports. cmd/shalom-bench exposes each experiment
// by id; the root-level bench_test.go wraps them as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"libshalom/internal/baselines"
	"libshalom/internal/perfsim"
	"libshalom/internal/platform"
	"libshalom/internal/workloads"
)

// Series is one labeled curve of an experiment.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Experiment is a runnable reproduction of one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the original figure shows, for side-by-side
	// reading in EXPERIMENTS.md.
	Paper string
	Run   func(w io.Writer)
}

// Libraries used across experiments, in the paper's legend order.
func evalLibs() []perfsim.Library {
	return []perfsim.Library{
		perfsim.Baseline(baselines.BLIS),
		perfsim.Baseline(baselines.OpenBLAS),
		perfsim.Baseline(baselines.ARMPL),
		perfsim.Baseline(baselines.LIBXSMM),
		perfsim.Baseline(baselines.BLASFEO),
		perfsim.LibShalom(),
	}
}

func parallelLibs() []perfsim.Library {
	return []perfsim.Library{
		perfsim.Baseline(baselines.OpenBLAS),
		perfsim.Baseline(baselines.ARMPL),
		perfsim.Baseline(baselines.BLIS),
		perfsim.LibShalom(),
	}
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: hardware evaluation platforms",
			Paper: "Phytium 2000+ / KP920 / ThunderX2 specification table", Run: Table1},
		{ID: "fig2a", Title: "Fig 2a: motivation, small square GEMM (% of peak, Phytium)",
			Paper: "existing libraries reach <60% of peak below size 32, >80% above 256", Run: Fig2a},
		{ID: "fig2b", Title: "Fig 2b: motivation, irregular GEMM (% of peak, Phytium, N=K=10000)",
			Paper: "all libraries below 40% of peak for M<128", Run: Fig2b},
		{ID: "fig6", Title: "Fig 6: edge micro-kernel schedules (cycles per iteration)",
			Paper: "interleaved schedule beats OpenBLAS batch loads", Run: Fig6},
		{ID: "fig7", Title: "Fig 7: small GEMM, warm cache (GFLOPS, NN and NT)",
			Paper: "LibShalom 1.05-2x over best alternative on all three platforms", Run: Fig7},
		{ID: "fig8", Title: "Fig 8: small GEMM, cold cache (GFLOPS, NN and NT)",
			Paper: "same trend; near-ties with BLASFEO at multiples of 8", Run: Fig8},
		{ID: "fig9", Title: "Fig 9: parallel irregular NT GEMM on Phytium 2000+ (K=5000)",
			Paper: "LibShalom ~1.8x over BLIS on average, 2.6x at M=32", Run: Fig9},
		{ID: "fig10", Title: "Fig 10: parallel irregular GEMM on KP920 and ThunderX2 (K=5000)",
			Paper: "1.6x (KP920) and 1.3x (TX2) over best baseline", Run: Fig10},
		{ID: "fig11", Title: "Fig 11: scalability on the VGG conv1.2 kernel",
			Paper: "max speedup 49x Phytium, 82x KP920, 35x TX2 vs OpenBLAS 1T", Run: Fig11},
		{ID: "fig12", Title: "Fig 12: L2 miss reduction vs OpenBLAS (irregular NT)",
			Paper: "~20% reduction on KP920, smaller on TX2", Run: Fig12},
		{ID: "fig13", Title: "Fig 13: optimization breakdown (single-thread irregular NT)",
			Paper: "packing overlap dominates; 1.25x/1.6x total at M=20 (Phytium/KP920)", Run: Fig13},
		{ID: "fig14", Title: "Fig 14: CP2K FP64 small kernels",
			Paper: "LibShalom best; up to 2x over LIBXSMM at 5x5x5", Run: Fig14},
		{ID: "fig15", Title: "Fig 15: VGG FP32 conv layers, all cores",
			Paper: "LibShalom best on every layer; up to 1.6x on conv1.2/conv5.2", Run: Fig15},
		{ID: "ablation", Title: "Ablation: each design decision of DESIGN.md §3 reverted in isolation",
			Paper: "(not a paper figure; quantifies §4-§6 decisions individually)", Run: Ablation},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Table1 prints the platform table.
func Table1(w io.Writer) {
	tw := newTab(w)
	fmt.Fprintln(tw, "\tPhytium 2000+\tKP920\tThunderX2")
	plats := platform.All()
	row := func(name string, f func(*platform.Platform) string) {
		fmt.Fprintf(tw, "%s", name)
		for _, p := range plats {
			fmt.Fprintf(tw, "\t%s", f(p))
		}
		fmt.Fprintln(tw)
	}
	row("Peak perf. (FP32 GFLOPS)", func(p *platform.Platform) string { return fmt.Sprintf("%.1f", p.PeakGFLOPS(4)) })
	row("Number of Cores", func(p *platform.Platform) string { return fmt.Sprint(p.Cores) })
	row("Frequency", func(p *platform.Platform) string { return fmt.Sprintf("%.1f GHz", p.FreqGHz) })
	row("L1 cache", func(p *platform.Platform) string { return fmt.Sprintf("%dKB", p.L1.SizeBytes>>10) })
	row("L2 cache", func(p *platform.Platform) string {
		if p.L2.SizeBytes >= 1<<20 {
			return fmt.Sprintf("%dMB", p.L2.SizeBytes>>20)
		}
		return fmt.Sprintf("%dKB", p.L2.SizeBytes>>10)
	})
	row("L3 cache", func(p *platform.Platform) string {
		if p.L3.SizeBytes == 0 {
			return "None"
		}
		return fmt.Sprintf("%dMB", p.L3.SizeBytes>>20)
	})
	row("RAM", func(p *platform.Platform) string { return fmt.Sprintf("%dGB", p.RAMBytes>>30) })
	tw.Flush()
}

func printSeries(w io.Writer, xLabel string, series []Series) {
	tw := newTab(w)
	fmt.Fprintf(tw, "%s", xLabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	if len(series) == 0 || len(series[0].X) == 0 {
		tw.Flush()
		return
	}
	for i := range series[0].X {
		fmt.Fprintf(tw, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(tw, "\t%.1f", s.Y[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig2aSeries computes the Fig 2a data: % of single-core peak vs size for
// the pre-existing libraries on Phytium 2000+.
func Fig2aSeries() []Series {
	p := platform.Phytium2000()
	libs := []perfsim.Library{
		perfsim.Baseline(baselines.BLIS), perfsim.Baseline(baselines.ARMPL),
		perfsim.Baseline(baselines.OpenBLAS), perfsim.Baseline(baselines.BLASFEO),
	}
	peak := p.PeakCoreGFLOPS(4)
	var out []Series
	for _, l := range libs {
		s := Series{Label: l.Name}
		for _, sh := range workloads.MotivationSquareSweep() {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, Threads: 1, Warm: true})
			s.X = append(s.X, float64(sh.M))
			s.Y = append(s.Y, 100*r.GFLOPS/peak)
		}
		out = append(out, s)
	}
	return out
}

// Fig2a prints the motivation square sweep.
func Fig2a(w io.Writer) {
	fmt.Fprintln(w, "% of peak FLOPS, small/large square GEMM, Phytium 2000+ (1 thread)")
	printSeries(w, "M=N=K", Fig2aSeries())
}

// Fig2bSeries computes Fig 2b: % of chip peak vs M for N=K=10000, all
// cores (BLASFEO excluded: no multi-threading, §3.1 footnote).
func Fig2bSeries() []Series {
	p := platform.Phytium2000()
	libs := []perfsim.Library{
		perfsim.Baseline(baselines.OpenBLAS), perfsim.Baseline(baselines.ARMPL),
		perfsim.Baseline(baselines.BLIS),
	}
	peak := p.PeakGFLOPS(4)
	var out []Series
	for _, l := range libs {
		s := Series{Label: l.Name}
		for _, sh := range workloads.MotivationIrregularSweep() {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, Threads: p.Cores})
			s.X = append(s.X, float64(sh.M))
			s.Y = append(s.Y, 100*r.GFLOPS/peak)
		}
		out = append(out, s)
	}
	return out
}

// Fig2b prints the motivation irregular sweep.
func Fig2b(w io.Writer) {
	fmt.Fprintln(w, "% of peak FLOPS, irregular GEMM M x 10000 x 10000, Phytium 2000+ (64 threads)")
	printSeries(w, "M", Fig2bSeries())
}

// Fig7Series computes the small-GEMM sweep for one platform/mode/cache
// state, one series per library.
func Fig7Series(p *platform.Platform, transB, warm bool) []Series {
	var out []Series
	for _, l := range evalLibs() {
		s := Series{Label: l.Name}
		for _, sh := range workloads.SmallSquareSweep() {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: transB, Threads: 1, Warm: warm})
			s.X = append(s.X, float64(sh.M))
			s.Y = append(s.Y, r.GFLOPS)
		}
		out = append(out, s)
	}
	return out
}

func smallGEMMFigure(w io.Writer, warm bool) {
	state := "warm"
	if !warm {
		state = "cold"
	}
	for _, p := range platform.All() {
		for _, mode := range []struct {
			name   string
			transB bool
		}{{"NN", false}, {"NT", true}} {
			fmt.Fprintf(w, "-- %s, %s mode, %s cache (GFLOPS FP32, 1 thread) --\n", p.Name, mode.name, state)
			printSeries(w, "M=N=K", Fig7Series(p, mode.transB, warm))
		}
	}
}

// Fig7 prints the warm-cache small GEMM comparison (three platforms, NN+NT).
func Fig7(w io.Writer) { smallGEMMFigure(w, true) }

// Fig8 prints the cold-cache variant.
func Fig8(w io.Writer) { smallGEMMFigure(w, false) }

// Fig9Series computes one Fig 9 subplot: GFLOPS vs the swept dimension.
func Fig9Series(p *platform.Platform, shapes []workloads.Shape, xFromN bool, transB bool) []Series {
	var out []Series
	for _, l := range parallelLibs() {
		s := Series{Label: l.Name}
		for _, sh := range shapes {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: transB, Threads: p.Cores})
			x := float64(sh.M)
			if xFromN {
				x = float64(sh.N)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, r.GFLOPS)
		}
		out = append(out, s)
	}
	return out
}

// Fig9 prints the Phytium NT irregular panels (top row: N swept for fixed
// M; bottom row: M swept for fixed N).
func Fig9(w io.Writer) {
	p := platform.Phytium2000()
	for _, m := range workloads.Fig9MValues() {
		fmt.Fprintf(w, "-- Phytium 2000+, NT, M=%d, K=5000 (GFLOPS FP32, 64 threads) --\n", m)
		printSeries(w, "N", Fig9Series(p, workloads.IrregularNSweep(m), true, true))
	}
	for _, n := range workloads.Fig9MValues() {
		fmt.Fprintf(w, "-- Phytium 2000+, NT, N=%d, K=5000 (GFLOPS FP32, 64 threads) --\n", n)
		printSeries(w, "M", Fig9Series(p, workloads.IrregularMSweep(n), false, true))
	}
}

// Fig10 prints the KP920 and ThunderX2 irregular panels under NN and NT.
func Fig10(w io.Writer) {
	for _, p := range []*platform.Platform{platform.KP920(), platform.ThunderX2()} {
		for _, m := range []int{32, 128} {
			for _, mode := range []struct {
				name   string
				transB bool
			}{{"NN", false}, {"NT", true}} {
				fmt.Fprintf(w, "-- %s, %s, M=%d, K=5000 (GFLOPS FP32, %d threads) --\n", p.Name, mode.name, m, p.Cores)
				printSeries(w, "N", Fig9Series(p, workloads.IrregularNSweep(m), true, mode.transB))
			}
		}
	}
}

// Fig11Series computes one platform's speedup-vs-threads curves, normalized
// to single-threaded OpenBLAS (§8.3).
func Fig11Series(p *platform.Platform) []Series {
	sh := workloads.ScalabilityKernel()
	base := perfsim.Run(perfsim.Baseline(baselines.OpenBLAS), p,
		perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: true, Threads: 1}).Seconds
	var threads []int
	for t := 1; t <= p.Cores; t *= 2 {
		threads = append(threads, t)
	}
	var out []Series
	for _, l := range parallelLibs() {
		s := Series{Label: l.Name}
		for _, t := range threads {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: true, Threads: t})
			s.X = append(s.X, float64(t))
			s.Y = append(s.Y, base/r.Seconds)
		}
		out = append(out, s)
	}
	return out
}

// Fig11 prints the scalability curves for all platforms.
func Fig11(w io.Writer) {
	for _, p := range platform.All() {
		fmt.Fprintf(w, "-- %s, VGG conv1.2 64x50176x576, speedup vs OpenBLAS 1 thread --\n", p.Name)
		printSeries(w, "threads", Fig11Series(p))
	}
}

// Fig12Series computes the L2-miss reduction (%) over OpenBLAS per K.
func Fig12Series(p *platform.Platform) []Series {
	libs := []perfsim.Library{
		perfsim.Baseline(baselines.BLIS), perfsim.Baseline(baselines.ARMPL), perfsim.LibShalom(),
	}
	var out []Series
	for _, l := range libs {
		s := Series{Label: l.Name}
		for _, sh := range workloads.Fig12KSweep() {
			// §8.4 reads per-core hardware counters; the comparison is a
			// single core's misses under each library's data-movement plan.
			w := perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: true, Threads: 1}
			ob := perfsim.Run(perfsim.Baseline(baselines.OpenBLAS), p, w).L2Misses
			r := perfsim.Run(l, p, w).L2Misses
			s.X = append(s.X, float64(sh.K))
			s.Y = append(s.Y, 100*(1-r/ob))
		}
		out = append(out, s)
	}
	return out
}

// Fig12 prints the miss-reduction sweep for KP920 and ThunderX2 (the
// platforms whose counters the paper could read).
func Fig12(w io.Writer) {
	for _, p := range []*platform.Platform{platform.KP920(), platform.ThunderX2()} {
		fmt.Fprintf(w, "-- %s: reduction of L2 cache misses vs OpenBLAS (%%), NT M=64 N=50176 --\n", p.Name)
		printSeries(w, "K", Fig12Series(p))
	}
}

// Fig13Series computes the optimization breakdown: three GFLOPS series
// (baseline, +edge, +packing) over the M sweep.
func Fig13Series(p *platform.Platform) []Series {
	variants := []perfsim.Library{
		perfsim.Baseline(baselines.OpenBLAS),
		perfsim.BaselinePlusEdgeOpt(),
		perfsim.LibShalom(),
	}
	names := []string{"baseline", "+edge-case optimization", "+packing optimization"}
	var out []Series
	for i, v := range variants {
		s := Series{Label: names[i]}
		for _, sh := range workloads.Fig13MSweep() {
			r := perfsim.Run(v, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 4, TransB: true, Threads: 1})
			s.X = append(s.X, float64(sh.M))
			s.Y = append(s.Y, r.GFLOPS)
		}
		out = append(out, s)
	}
	return out
}

// Fig13 prints the breakdown for all platforms.
func Fig13(w io.Writer) {
	for _, p := range platform.All() {
		fmt.Fprintf(w, "-- %s: single-thread NT, N=50176, K=576 (GFLOPS FP32) --\n", p.Name)
		printSeries(w, "M", Fig13Series(p))
	}
}

// Fig14Series computes the CP2K FP64 bars for one platform.
func Fig14Series(p *platform.Platform) []Series {
	shapes := workloads.CP2K()
	var out []Series
	for _, l := range evalLibs() {
		s := Series{Label: l.Name}
		for i, sh := range shapes {
			r := perfsim.Run(l, p, perfsim.Workload{M: sh.M, N: sh.N, K: sh.K, ElemBytes: 8, Threads: 1, Warm: true})
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, r.GFLOPS)
		}
		out = append(out, s)
	}
	return out
}

// Fig14 prints the CP2K bars.
func Fig14(w io.Writer) {
	for _, p := range platform.All() {
		fmt.Fprintf(w, "-- %s: CP2K FP64 kernels (GFLOPS, 1 thread) --\n", p.Name)
		tw := newTab(w)
		fmt.Fprint(tw, "kernel")
		series := Fig14Series(p)
		for _, s := range series {
			fmt.Fprintf(tw, "\t%s", s.Label)
		}
		fmt.Fprintln(tw)
		for i, sh := range workloads.CP2K() {
			fmt.Fprintf(tw, "%dx%dx%d", sh.M, sh.N, sh.K)
			for _, s := range series {
				fmt.Fprintf(tw, "\t%.1f", s.Y[i])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}

// Fig15Series computes the VGG layer bars for one platform (all cores).
func Fig15Series(p *platform.Platform) []Series {
	layers := workloads.VGG()
	var out []Series
	for _, l := range parallelLibs() {
		s := Series{Label: l.Name}
		for i, lay := range layers {
			r := perfsim.Run(l, p, perfsim.Workload{M: lay.M, N: lay.N, K: lay.K, ElemBytes: 4, TransB: true, Threads: p.Cores})
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, r.GFLOPS)
		}
		out = append(out, s)
	}
	return out
}

// Fig15 prints the VGG bars.
func Fig15(w io.Writer) {
	for _, p := range platform.All() {
		fmt.Fprintf(w, "-- %s: VGG conv layers (GFLOPS FP32, %d threads) --\n", p.Name, p.Cores)
		tw := newTab(w)
		fmt.Fprint(tw, "layer")
		series := Fig15Series(p)
		for _, s := range series {
			fmt.Fprintf(tw, "\t%s", s.Label)
		}
		fmt.Fprintln(tw)
		for i, lay := range workloads.VGG() {
			fmt.Fprintf(tw, "%s", lay.Name)
			for _, s := range series {
				fmt.Fprintf(tw, "\t%.0f", s.Y[i])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
