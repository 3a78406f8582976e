package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	_ "libshalom/internal/baselines" // register baseline kernels
	"libshalom/internal/isacheck"
	_ "libshalom/internal/kernels" // register libshalom kernels
)

// runLint runs the static kernel verifier (internal/isacheck) over the
// registered micro-kernels on the modelled platforms and reports a verdict
// table. It is the build gate `make check` runs: a generator change that
// breaks a footprint, batches loads in a pipelined kernel, drifts from its
// Eq. 1 register tiling, or escapes its symbolic panel-span proof fails the
// build before any benchmark runs.
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("lint", stderr)
	kernel := fs.String("kernel", "", "verify only kernels whose name contains this substring")
	platName := platformFlag(fs, "")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	quiet := fs.Bool("q", false, "only print failing (kernel, platform) pairs")
	if fs.Parse(args) != nil {
		return 2
	}
	plats := selectPlatforms(*platName, stderr)
	if plats == nil {
		return 2
	}

	var entries []isacheck.Entry
	for _, e := range isacheck.Registered() {
		if strings.Contains(e.Name, *kernel) {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		fmt.Fprintln(stderr, "shalom-bench lint: no kernels selected")
		return 2
	}

	var results []isacheck.KernelResult
	for _, e := range entries {
		for _, p := range plats {
			results = append(results, isacheck.Run(e, p))
		}
	}
	ok, fail := isacheck.Summarize(results)

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "shalom-bench lint: %v\n", err)
			return 2
		}
	} else {
		printLintTable(stdout, results, *quiet)
		fmt.Fprintf(stdout, "\n%d checked, %d ok, %d failing\n", len(results), ok, fail)
	}
	if fail > 0 {
		return 1
	}
	return 0
}

func printLintTable(stdout io.Writer, results []isacheck.KernelResult, quiet bool) {
	w := newTable(stdout)
	fmt.Fprintln(w, "KERNEL\tPLATFORM\tVERDICT\tPASSES\tREGS\tMINDIST\tLOADRUN\tLOADPRESS")
	for _, r := range results {
		if quiet && r.OK {
			continue
		}
		verdict := "ok"
		if !r.OK {
			verdict = "FAIL"
		}
		var failed []string
		for _, p := range r.Passes {
			if !p.OK {
				failed = append(failed, p.Pass)
			}
		}
		passes := fmt.Sprintf("%d/%d", len(r.Passes)-len(failed), len(r.Passes))
		if len(failed) > 0 {
			passes += " (" + strings.Join(failed, ",") + ")"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.0f\t%.0f\t%.0f\t%.2f\n",
			r.Kernel, r.Platform, verdict, passes,
			r.Metrics["peakLive"], r.Metrics["minLoadUseDist"],
			r.Metrics["maxLoadRun"], r.Metrics["loadPressure"])
	}
	w.Flush()
	for _, r := range results {
		if r.OK {
			continue
		}
		fmt.Fprintf(stdout, "\n%s on %s:\n", r.Kernel, r.Platform)
		for _, f := range r.Findings() {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
	}
}
