package staticlint

import (
	"go/ast"
	"go/types"
)

// FuncInfo pairs a module function's type object with its declaration.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Index is the module-wide function table hotpath's transitive proof walks.
type Index struct {
	funcs map[*types.Func]*FuncInfo
}

func buildIndex(prog *Program) *Index {
	idx := &Index{funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return idx
}

// Lookup returns the declaration info for a module function, or nil for
// imported/synthetic ones.
func (idx *Index) Lookup(fn *types.Func) *FuncInfo { return idx.funcs[fn] }

// CalleeKind classifies a call site's resolution.
type CalleeKind int

const (
	// CalleeStatic: the target is a concrete *types.Func.
	CalleeStatic CalleeKind = iota
	// CalleeDynamic: a func value or interface method — no static target.
	CalleeDynamic
	// CalleeBuiltin: len, cap, make, append, panic, ...
	CalleeBuiltin
	// CalleeConversion: T(x) — a type conversion, not a call.
	CalleeConversion
)

// Callee resolves one call expression within pkg.
type Callee struct {
	Kind    CalleeKind
	Fn      *types.Func    // Kind == CalleeStatic
	Builtin *types.Builtin // Kind == CalleeBuiltin
	// Iface is true for a dynamic call through an interface method (as
	// opposed to a func value).
	Iface bool
}

// ResolveCall classifies call and finds its static target when one exists.
func ResolveCall(pkg *Package, call *ast.CallExpr) Callee {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return Callee{Kind: CalleeConversion}
	}
	return resolveFun(pkg, fun)
}

// resolveFun resolves the function expression of a call.
func resolveFun(pkg *Package, fun ast.Expr) Callee {
	switch f := fun.(type) {
	case *ast.IndexExpr:
		// An explicit instantiation f[T](…) calls f; a func value indexed
		// out of a slice or map resolves to no function and stays dynamic.
		if c := resolveFun(pkg, ast.Unparen(f.X)); c.Kind == CalleeStatic {
			return c
		}
		return Callee{Kind: CalleeDynamic}
	case *ast.IndexListExpr:
		return resolveFun(pkg, ast.Unparen(f.X)) // f[T1, T2](…)
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			return Callee{Kind: CalleeStatic, Fn: obj}
		case *types.Builtin:
			return Callee{Kind: CalleeBuiltin, Builtin: obj}
		}
		return Callee{Kind: CalleeDynamic}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			// Method or field call through a selection.
			if fn, ok := sel.Obj().(*types.Func); ok {
				iface := types.IsInterface(sel.Recv())
				if iface {
					return Callee{Kind: CalleeDynamic, Iface: true}
				}
				return Callee{Kind: CalleeStatic, Fn: fn}
			}
			return Callee{Kind: CalleeDynamic} // func-typed field
		}
		// Package-qualified reference: pkg.Func.
		switch obj := pkg.Info.Uses[f.Sel].(type) {
		case *types.Func:
			return Callee{Kind: CalleeStatic, Fn: obj}
		case *types.Builtin:
			return Callee{Kind: CalleeBuiltin, Builtin: obj}
		}
		return Callee{Kind: CalleeDynamic}
	}
	return Callee{Kind: CalleeDynamic}
}

// FuncPkgPath returns the import path of the package defining fn ("" for
// builtins/universe).
func FuncPkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// RecvNamed returns the named type of fn's receiver, unwrapping pointers,
// or nil for plain functions.
func RecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
