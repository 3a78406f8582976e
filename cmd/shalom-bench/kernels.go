package main

import (
	"fmt"
	"io"

	"libshalom/internal/isa"
	"libshalom/internal/kernels"
	"libshalom/internal/platform"
	"libshalom/internal/uarch"
)

// runKernels prints the virtual-NEON instruction stream of one of the
// reproduction's micro-kernels — the analogue of the paper's assembly
// listings (Alg 2/3, Fig 6) — together with static analysis (register
// pressure, stream accesses, CMR) and per-platform timing from the
// scoreboard model.
func runKernels(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("kernels", stderr)
	kernel := fs.String("kernel", "main", "main (7x12, Alg 2) | packmain (NN overlap-pack) | ntpack (7x3 NT pack, Alg 3) | edge-batch (OpenBLAS 8x4, Fig 6a) | edge-sched (its reschedule, Fig 6b)")
	kc := fs.Int("kc", 8, "K extent of the emitted kernel (rounded to the vector width)")
	fp64 := fs.Bool("fp64", false, fp64Usage+"; main, packmain and ntpack only")
	noDis := fs.Bool("q", false, "suppress the disassembly, print only analysis")
	if fs.Parse(args) != nil {
		return 2
	}

	elem := elemBytes(*fp64)
	lanes := 16 / elem
	k := *kc
	if k%lanes != 0 {
		k += lanes - k%lanes
	}

	var p *isa.Program
	switch *kernel {
	case "main", "packmain":
		mr, nr := 7, 12
		if elem == 8 {
			mr, nr = 7, 6
		}
		p = kernels.BuildMain(kernels.MainSpec{
			Elem: elem, MR: mr, NR: nr, KC: k,
			LDA: k, LDB: nr, LDC: nr,
			Accumulate: true, PackB: *kernel == "packmain",
			Schedule: kernels.Pipelined,
		})
	case "ntpack":
		nrTotal := 12
		if elem == 8 {
			nrTotal = 6
		}
		p = kernels.BuildNTPack(kernels.NTPackSpec{
			Elem: elem, MR: 7, NB: 3, KC: k,
			LDA: k, LDBT: k, LDC: nrTotal, NRTotal: nrTotal, JOff: 0,
		})
	case "edge-batch", "edge-sched":
		if elem == 8 {
			fmt.Fprintln(stderr, "the Fig 6 edge kernel pair is FP32")
			return 2
		}
		sched := kernels.Batch
		if *kernel == "edge-sched" {
			sched = kernels.Pipelined
		}
		p = kernels.BuildEdge8x4(kernels.EdgeSpec{Elem: 4, KC: k, LDAp: 8, LDB: 4, LDC: 4, Schedule: sched})
	default:
		fmt.Fprintf(stderr, "unknown kernel %q\n", *kernel)
		return 2
	}

	if !*noDis {
		fmt.Fprint(stdout, p.Disassemble())
		fmt.Fprintln(stdout)
	}

	counts := p.Count()
	fmt.Fprintf(stdout, "instructions: %d  (loads %d, stores %d, FMAs %d, other %d)\n",
		len(p.Code), counts.Loads, counts.Stores, counts.FMAs, counts.Other)
	fmt.Fprintf(stdout, "flops: %d   CMR (arith/mem instructions): %.2f\n", p.FlopCount(), p.CMR())

	rep, err := isa.Analyze(p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "peak live registers: %d / 32\n", rep.PeakLive)
	for _, s := range rep.Streams {
		fmt.Fprintf(stdout, "stream %-3s loads %-4d stores %-4d extent [%d, %d)\n", s.Name, s.Loads, s.Stores, s.MinOff, s.MaxOff)
	}

	fmt.Fprintln(stdout, "\nscoreboard timing (whole program, operands L1-resident):")
	tw := newTable(stdout)
	fmt.Fprintln(tw, "platform\tcycles\tIPC\tFMA-pipe busy\tflops/cycle\tpeak flops/cycle")
	for _, plat := range platform.All() {
		r := uarch.Simulate(p, uarch.FromPlatform(plat))
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.0f%%\t%.2f\t%.0f\n",
			plat.Name, r.Cycles, r.IPC(), 100*r.FMAUtilization(),
			float64(p.FlopCount())/float64(r.Cycles), plat.FlopsPerCycleCore(elem))
	}
	tw.Flush()
	return 0
}
