// Package staticlint is shalom-vet's analysis engine: a small, self-hosted
// go/analysis-style framework (the module is dependency-free, so the real
// golang.org/x/tools machinery is off the table) plus the four analyzers
// that prove LibShalom's runtime invariants statically:
//
//   - hotpath: functions annotated `//shalom:hotpath noalloc,nolock,...`
//     and their transitive module callees are proven free of the banned
//     operation classes (heap allocation and interface boxing; mutex and
//     channel operations; blocking calls; clock reads).
//   - telemetrypure: every method of a nil-disableable type — the
//     telemetry Recorder and its metric handles, and the exported methods
//     of the journal Writer and the attribution and autotune engines —
//     that performs writes opens with the nil-receiver guard, so the
//     disabled paths are provably write-free.
//   - ctxflow: library code must propagate caller contexts; minting
//     context.Background()/TODO() outside main packages breaks deadline and
//     cancellation flow into the batch runtime.
//   - atomicdiscipline: no field is accessed both atomically and plainly,
//     and raw 64-bit fields used with 64-bit atomics sit at 8-aligned
//     offsets under 32-bit layout rules.
//
// Unlike go/analysis, analyzers here see the whole loaded program at once
// (hotpath's transitive proof spans packages), and suppression is by
// source annotation only: `//shalom:allow <analyzer>` on or immediately
// above the offending line.
package staticlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string
	Name  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the unit of analysis: every module package of one Load call,
// sharing a FileSet and the annotation index.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	Annots   *Annotations

	index *Index
}

// Index returns the module-wide function index, built on first use.
func (p *Program) Index() *Index {
	if p.index == nil {
		p.index = buildIndex(p)
	}
	return p.index
}

// Diagnostic is one finding: where, which analyzer, what.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a whole Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program, *Reporter)
}

// Reporter collects one analyzer's diagnostics, dropping those the source
// suppresses with `//shalom:allow <name>`.
type Reporter struct {
	prog     *Program
	analyzer string
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos unless an allow annotation covers it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.prog.Fset.Position(pos)
	if r.prog.Annots.allowed(r.analyzer, p) {
		return
	}
	r.diags = append(r.diags, Diagnostic{Pos: p, Analyzer: r.analyzer, Message: fmt.Sprintf(format, args...)})
}

// All returns the four shalom-vet analyzers in their canonical order.
func All() []*Analyzer {
	return []*Analyzer{Hotpath, TelemetryPure, CtxFlow, AtomicDiscipline}
}

// ByNames resolves a comma-separated analyzer selection ("" = all).
func ByNames(sel string) ([]*Analyzer, error) {
	if sel == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers executes the analyzers over the program and returns the
// merged diagnostics, deterministically sorted by position, analyzer and
// message.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		rep := &Reporter{prog: prog, analyzer: a.Name}
		a.Run(prog, rep)
		diags = append(diags, rep.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
