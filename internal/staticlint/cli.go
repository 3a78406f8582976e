package staticlint

import (
	"flag"
	"fmt"
	"io"
)

// Exit codes shared by shalom-vet and the analyzer tests.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one diagnostic
	ExitUsage    = 2 // bad flags, load failure, or type errors
)

// Main is the shalom-vet entry point, factored out of package main so CLI
// behaviour (flag parsing, exit codes, output shape) is testable in-process.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shalom-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("dir", ".", "directory to resolve patterns from")
		analyzer = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list     = fs.Bool("list", false, "list available analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: shalom-vet [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the shalom static analyzers over the given package patterns\n")
		fmt.Fprintf(stderr, "(default ./...). Exit codes: %d clean, %d findings, %d usage/load error.\n\n",
			ExitClean, ExitFindings, ExitUsage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}

	if *list {
		for _, a := range All() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}

	analyzers := All()
	if *analyzer != "" {
		sel, err := ByNames(*analyzer)
		if err != nil {
			fmt.Fprintf(stderr, "shalom-vet: %v\n", err)
			return ExitUsage
		}
		analyzers = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := Load(Config{Dir: *dir, Patterns: patterns})
	if err != nil {
		fmt.Fprintf(stderr, "shalom-vet: %v\n", err)
		return ExitUsage
	}

	diags := RunAnalyzers(prog, analyzers)
	for _, d := range diags {
		fmt.Fprintln(stdout, d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "shalom-vet: %d finding(s)\n", len(diags))
		return ExitFindings
	}
	return ExitClean
}
