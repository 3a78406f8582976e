package staticlint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Config selects what to load and under which build configuration.
type Config struct {
	// Dir is the working directory for the go tool; empty means the
	// process's.
	Dir string
	// Patterns are go-list package patterns (./..., explicit dirs). An
	// explicit path may point inside a testdata tree — the go tool only
	// skips testdata during wildcard expansion — which is how the analyzer
	// fixtures load.
	Patterns []string
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	Error      *struct{ Err string }
	DepsErrors []*struct{ Err string }
}

// Load builds the analysis program for the given patterns: one
// `go list -export -deps -json` invocation resolves the import graph and
// compiles export data (offline — no module fetching happens for a
// dependency-free module), then every non-standard package is parsed and
// type-checked from source in dependency order while standard-library
// imports come from their compiled export files.
func Load(cfg Config) (*Program, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, cfg.Patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("staticlint: go list %s: %v\n%s",
			strings.Join(cfg.Patterns, " "), err, strings.TrimSpace(stderr.String()))
	}

	var order []string
	pkgs := map[string]*listPkg{}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("staticlint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("staticlint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkgs[lp.ImportPath] = lp
		order = append(order, lp.ImportPath)
	}

	prog := &Program{Fset: token.NewFileSet()}
	ld := &loader{
		fset:   prog.Fset,
		list:   pkgs,
		source: map[string]*types.Package{},
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", ld.lookup)

	// `go list -deps` emits dependencies before dependents, so a single
	// forward walk type-checks every source package after its imports.
	for _, path := range order {
		lp := pkgs[path]
		if lp.Standard {
			continue
		}
		p, err := ld.check(lp)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, p)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	prog.Annots = collectAnnotations(prog)
	return prog, nil
}

// loader resolves imports during type-checking: source-checked module
// packages by identity, everything else through gc export data located by
// the go list run.
type loader struct {
	fset   *token.FileSet
	list   map[string]*listPkg
	source map[string]*types.Package
	gc     types.Importer
	// from is the package whose file is being checked, for ImportMap
	// (vendoring) resolution.
	from *listPkg
}

func (ld *loader) lookup(path string) (io.ReadCloser, error) {
	lp := ld.list[path]
	if lp == nil || lp.Export == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(lp.Export)
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if ld.from != nil {
		if mapped, ok := ld.from.ImportMap[path]; ok {
			path = mapped
		}
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.source[path]; ok {
		return p, nil
	}
	return ld.gc.Import(path)
}

func (ld *loader) check(lp *listPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("staticlint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	ld.from = lp
	conf := types.Config{
		Importer: ld,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, ld.fset, files, info)
	ld.from = nil
	if err != nil {
		return nil, fmt.Errorf("staticlint: type-checking %s: %v", lp.ImportPath, err)
	}
	ld.source[lp.ImportPath] = tpkg
	return &Package{
		Path:  lp.ImportPath,
		Name:  tpkg.Name(),
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
