// Command shalom-info prints the reproduction's analytic state: the Table 1
// platform models, the solved micro-kernel tiles (Eq. 1–2), the derived
// cache blocking parameters, example parallel partitions (§6), and the
// kernel health report (which kernel paths, if any, are demoted to the
// portable reference implementation).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"libshalom/internal/analytic"
	"libshalom/internal/bench"
	"libshalom/internal/guard"
	_ "libshalom/internal/kernels" // registers the micro-kernel catalogue
	"libshalom/internal/platform"
)

// printHealth runs contract verification and renders the self-healing view:
// the active policy, every circuit-breaker record with its state and trip
// count, and the trip history.
func printHealth(plats []*platform.Platform) {
	for _, p := range plats {
		guard.VerifyContracts(p)
	}
	guard.Health().Write(os.Stdout)
}

// printDegraded runs the registration-time contract verification for each
// platform and reports any kernel paths demoted to the reference
// implementation. A healthy build prints "none".
func printDegraded(plats []*platform.Platform) {
	for _, p := range plats {
		guard.VerifyContracts(p)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tplatform\tkernel path\treason\tfirst shape\tdetail")
	any := false
	for _, p := range plats {
		for _, d := range guard.List(p.Name) {
			any = true
			shape := d.Shape
			if shape == "" {
				shape = "-"
			}
			fmt.Fprintf(tw, "#%d\t%s\t%s\t%s\t%s\t%s\n", d.Seq, d.Platform, d.Kernel, d.Reason, shape, d.Detail)
		}
	}
	tw.Flush()
	if !any {
		fmt.Println("none: all registered kernels clear their isacheck contracts")
	}
}

func main() {
	table1 := flag.Bool("table1", false, "print only the Table 1 platform table")
	platName := flag.String("platform", "", "restrict the report to one platform (e.g. kp920, phytium2000, thunderx2)")
	degraded := flag.Bool("degraded", false, "print only the degraded-kernel report")
	health := flag.Bool("health", false, "print only the self-healing circuit-breaker report")
	flag.Parse()

	plats := platform.All()
	if *platName != "" {
		p := platform.ByName(*platName)
		if p == nil {
			fmt.Fprintf(os.Stderr, "shalom-info: unknown platform %q\n", *platName)
			os.Exit(2)
		}
		plats = []*platform.Platform{p}
	}

	if *table1 {
		bench.Table1(os.Stdout)
		return
	}
	if *degraded {
		printDegraded(plats)
		return
	}
	if *health {
		printHealth(plats)
		return
	}

	fmt.Println("== Table 1: evaluation platforms ==")
	bench.Table1(os.Stdout)

	fmt.Println("\n== Micro-kernel tiles from the register/CMR model (Eq. 1-2) ==")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "precision\tmr x nr\tCMR\tregisters used (budget 31)")
	for _, eb := range []int{4, 8} {
		t := analytic.SolveForElem(eb)
		name := "FP32"
		if eb == 8 {
			name = "FP64"
		}
		fmt.Fprintf(tw, "%s\t%dx%d\t%.2f\t%d\n", name, t.MR, t.NR, t.CMR, t.Regs)
	}
	tw.Flush()

	fmt.Println("\n== Cache blocking parameters (mc, kc, nc) ==")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "platform\tprecision\tmc\tkc\tnc")
	for _, p := range plats {
		for _, eb := range []int{4, 8} {
			b := analytic.BlockingFor(p, eb)
			name := "FP32"
			if eb == 8 {
				name = "FP64"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", p.Name, name, b.MC, b.KC, b.NC)
		}
	}
	tw.Flush()

	fmt.Println("\n== SVE vector-length sweep of the tile solver (§5.5) ==")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vector bits\tFP32 tile\tFP32 CMR\tFP64 tile\tFP64 CMR")
	for _, e := range analytic.VectorSweep(4) {
		t64, err := analytic.SolveForVector(e.Bits, 8)
		if err != nil {
			continue
		}
		fmt.Fprintf(tw, "%d\t%dx%d\t%.2f\t%dx%d\t%.2f\n", e.Bits, e.Tile.MR, e.Tile.NR, e.Tile.CMR, t64.MR, t64.NR, t64.CMR)
	}
	tw.Flush()

	fmt.Println("\n== Parallel partitions Tn = ceil(sqrt(T*N/M)) (§6.1) ==")
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "M\tN\tthreads\tTm x Tn")
	for _, c := range [][3]int{{2048, 256, 64}, {32, 10240, 64}, {64, 50176, 64}, {512, 196, 32}} {
		part := analytic.PartitionFor(c[0], c[1], c[2])
		fmt.Fprintf(tw, "%d\t%d\t%d\t%dx%d\n", c[0], c[1], c[2], part.TM, part.TN)
	}
	tw.Flush()

	fmt.Println("\n== Degraded kernels (fallback chain) ==")
	printDegraded(plats)
}
