// Command shalom-bench is the reproduction's command-line tool. With no
// subcommand it regenerates the paper's evaluation tables and figures
// (Table 1, Figures 2, 6–15) from the reproduction's models; its
// subcommands show the models behind them.
//
// Usage:
//
//	shalom-bench -list | -exp fig7 | -exp all
//	shalom-bench info [-platform P]          tiles, blockings, partitions, kernel health
//	shalom-bench predict -m 64 -n 50176 -k 576 -mode NT -threads 0
//	shalom-bench kernels -kernel main -kc 8  a micro-kernel listing, analysis and timing
//	shalom-bench lint [-kernel S] [-json]    static verification of the kernel catalogue
//
// Exit codes: 0 ok, 1 findings, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"libshalom/internal/bench"
	"libshalom/internal/platform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"info":    runInfo,
	"predict": runPredict,
	"kernels": runKernels,
	"lint":    runLint,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runExp(args, stdout, stderr)
	}
	cmd, ok := subcommands[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "shalom-bench: unknown subcommand %q (info, predict, kernels, lint)\n", args[0])
		return 2
	}
	return cmd(args[1:], stdout, stderr)
}

// runExp lists the experiment registry or runs one experiment, or all.
func runExp(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("", stderr)
	list := fs.Bool("list", false, "list available experiments")
	exp := fs.String("exp", "", "experiment id to run (or \"all\")")
	if fs.Parse(args) != nil {
		return 2
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "Available experiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
			fmt.Fprintf(stdout, "  %-8s paper: %s\n", "", e.Paper)
		}
		if *exp == "" && !*list {
			fmt.Fprintln(stdout, "\nrun with -exp <id> or -exp all, or a subcommand: info, predict, kernels, lint")
		}
		return 0
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "=== %s ===\n", e.Title)
			e.Run(stdout)
			fmt.Fprintln(stdout)
		}
		return 0
	}
	e := bench.ByID(*exp)
	if e == nil {
		fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *exp)
		return 2
	}
	fmt.Fprintf(stdout, "=== %s ===\n", e.Title)
	fmt.Fprintf(stdout, "paper: %s\n\n", e.Paper)
	e.Run(stdout)
	return 0
}

// newFlags returns the flag set of one subcommand ("" for the experiment
// runner); a parse error is reported on stderr and exits 2.
func newFlags(sub string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(strings.TrimSpace("shalom-bench "+sub), flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// platformNames lists every name platform.ByName accepts, Table 1 names
// first.
const platformNames = `"Phytium 2000+" (phytium, ft2000, phytium2000), "Kunpeng 920" (kp920, kunpeng, kunpeng920) or "ThunderX2" (thunderx2, tx2)`

// platformFlag registers the -platform flag every subcommand that takes
// one shares; info and lint default to every platform.
func platformFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("platform", def, "one platform, by Table 1 name or alias: "+platformNames)
}

// lookupPlatform resolves a -platform value, or reports it and returns nil.
func lookupPlatform(name string, stderr io.Writer) *platform.Platform {
	p := platform.ByName(name)
	if p == nil {
		fmt.Fprintf(stderr, "shalom-bench: unknown platform %q; want %s\n", name, platformNames)
	}
	return p
}

// selectPlatforms resolves an optional -platform value: every platform
// when it is empty, else the one it names, or nil when it names none.
func selectPlatforms(name string, stderr io.Writer) []*platform.Platform {
	if name == "" {
		return platform.All()
	}
	if p := lookupPlatform(name, stderr); p != nil {
		return []*platform.Platform{p}
	}
	return nil
}

// elemBytes is the element size the -fp64 flag selects.
func elemBytes(fp64 bool) int {
	if fp64 {
		return 8
	}
	return 4
}

const fp64Usage = "double precision (8-byte elements instead of 4)"

// newTable returns the tab-aligned writer every table here prints through.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
