package main

import (
	"fmt"
	"io"

	"libshalom/internal/analytic"
	"libshalom/internal/guard"
)

// runInfo prints the reproduction's analytic state: the solved micro-kernel
// tiles (Eq. 1–2), the derived cache blocking parameters, the §5.5 vector
// sweep, example parallel partitions (§6), the kernel paths demoted to the
// portable reference implementation, and the self-healing health report.
// Table 1 itself is the table1 experiment.
func runInfo(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("info", stderr)
	platName := platformFlag(fs, "")
	if fs.Parse(args) != nil {
		return 2
	}
	plats := selectPlatforms(*platName, stderr)
	if plats == nil {
		return 2
	}

	fmt.Fprintln(stdout, "== Micro-kernel tiles from the register/CMR model (Eq. 1-2) ==")
	tw := newTable(stdout)
	fmt.Fprintln(tw, "precision\tmr x nr\tCMR\tregisters used (budget 31)")
	for _, eb := range []int{4, 8} {
		t := analytic.SolveForElem(eb)
		fmt.Fprintf(tw, "FP%d\t%dx%d\t%.2f\t%d\n", 8*eb, t.MR, t.NR, t.CMR, t.Regs)
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\n== Cache blocking parameters (mc, kc, nc) ==")
	tw = newTable(stdout)
	fmt.Fprintln(tw, "platform\tprecision\tmc\tkc\tnc")
	for _, p := range plats {
		for _, eb := range []int{4, 8} {
			b := analytic.BlockingFor(p, eb)
			fmt.Fprintf(tw, "%s\tFP%d\t%d\t%d\t%d\n", p.Name, 8*eb, b.MC, b.KC, b.NC)
		}
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\n== SVE vector-length sweep of the tile solver (§5.5) ==")
	tw = newTable(stdout)
	fmt.Fprintln(tw, "vector bits\tFP32 tile\tFP32 CMR\tFP64 tile\tFP64 CMR")
	for _, e := range analytic.VectorSweep(4) {
		t64, err := analytic.SolveForVector(e.Bits, 8)
		if err != nil {
			continue
		}
		fmt.Fprintf(tw, "%d\t%dx%d\t%.2f\t%dx%d\t%.2f\n", e.Bits, e.Tile.MR, e.Tile.NR, e.Tile.CMR, t64.MR, t64.NR, t64.CMR)
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\n== Parallel partitions Tn = ceil(sqrt(T*N/M)) (§6.1) ==")
	tw = newTable(stdout)
	fmt.Fprintln(tw, "M\tN\tthreads\tTm x Tn")
	for _, c := range [][3]int{{2048, 256, 64}, {32, 10240, 64}, {64, 50176, 64}, {512, 196, 32}} {
		part := analytic.PartitionFor(c[0], c[1], c[2])
		fmt.Fprintf(tw, "%d\t%d\t%d\t%dx%d\n", c[0], c[1], c[2], part.TM, part.TN)
	}
	tw.Flush()

	fmt.Fprintln(stdout, "\n== Degraded kernels (fallback chain) ==")
	tw = newTable(stdout)
	fmt.Fprintln(tw, "seq\tplatform\tkernel path\treason\tfirst shape\tdetail")
	any := false
	for _, p := range plats {
		guard.VerifyContracts(p)
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
		fmt.Fprintln(stdout, "none: all registered kernels clear their isacheck contracts")
	}
	fmt.Fprintln(stdout, "\n== Kernel health (self-healing breakers) ==")
	guard.Health().Write(stdout)
	return 0
}
