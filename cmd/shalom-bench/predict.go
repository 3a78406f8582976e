package main

import (
	"fmt"
	"io"
	"sort"

	"libshalom/internal/baselines"
	"libshalom/internal/core"
	"libshalom/internal/perfsim"
)

// runPredict explains one GEMM call: the execution plan LibShalom's driver
// will follow (packing decision, blocking, partition) and the calibrated
// performance model's prediction for every library on one platform, with
// the per-component time breakdown.
func runPredict(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("predict", stderr)
	m := fs.Int("m", 64, "rows of C")
	n := fs.Int("n", 64, "columns of C")
	k := fs.Int("k", 64, "inner dimension")
	modeStr := fs.String("mode", "NN", "NN | NT | TN | TT")
	threads := fs.Int("threads", 1, "thread count (0 = all platform cores)")
	platName := platformFlag(fs, "kp920")
	fp64 := fs.Bool("fp64", false, fp64Usage)
	warm := fs.Bool("warm", false, "warm-cache methodology (Fig 7)")
	if fs.Parse(args) != nil {
		return 2
	}

	mode, err := core.ParseMode(*modeStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	plat := lookupPlatform(*platName, stderr)
	if plat == nil {
		return 2
	}
	if *threads == 0 {
		*threads = plat.Cores
	}
	elem := elemBytes(*fp64)

	fmt.Fprintf(stdout, "== execution plan (LibShalom driver, %s) ==\n", plat.Name)
	fmt.Fprint(stdout, core.PlanFor(core.NewDriver(core.Config{Plat: plat, Threads: *threads}), mode, *m, *n, *k, elem).String())

	w := perfsim.Workload{M: *m, N: *n, K: *k, ElemBytes: elem, TransB: mode.TransB(), Threads: *threads, Warm: *warm}
	fmt.Fprintf(stdout, "\n== modeled performance (%dx%dx%d %s, %d thread(s), elem %dB) ==\n", *m, *n, *k, mode, *threads, elem)
	tw := newTable(stdout)
	fmt.Fprintln(tw, "library\tGFLOPS\ttime\tactive threads")
	libs := []perfsim.Library{
		perfsim.LibShalom(),
		perfsim.Baseline(baselines.BLIS), perfsim.Baseline(baselines.OpenBLAS),
		perfsim.Baseline(baselines.ARMPL), perfsim.Baseline(baselines.LIBXSMM),
		perfsim.Baseline(baselines.BLASFEO),
	}
	for _, l := range libs {
		r := perfsim.Run(l, plat, w)
		fmt.Fprintf(tw, "%s\t%.1f\t%s\t%d\n", l.Name, r.GFLOPS, fmtDur(r.Seconds), r.ActiveThreads)
	}
	tw.Flush()

	ls := perfsim.Run(perfsim.LibShalom(), plat, w)
	fmt.Fprintln(stdout, "\n== LibShalom time breakdown ==")
	tw = newTable(stdout)
	keys := make([]string, 0, len(ls.Components))
	for key := range ls.Components {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		v := ls.Components[key]
		if v <= 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f%%\n", key, fmtDur(v), 100*v/ls.Seconds)
	}
	tw.Flush()
	return 0
}

func fmtDur(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2f s", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2f ms", sec*1e3)
	case sec >= 1e-6:
		return fmt.Sprintf("%.2f µs", sec*1e6)
	default:
		return fmt.Sprintf("%.0f ns", sec*1e9)
	}
}
