package staticlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TelemetryPure proves the off-switch contract: the nil-disableable types
// — telemetry's *Recorder and its metric-family handles, the journal's
// *Writer, the attribution and autotune engines — are handed out possibly
// nil, and the disabled path's whole contract is that a nil receiver
// writes nothing. Every targeted method that writes through its receiver
// must begin with the nil-receiver guard (`if r == nil { return }`,
// possibly with extra `||` disjuncts), so a nil receiver returns before
// any write.
var TelemetryPure = &Analyzer{
	Name: "telemetrypure",
	Doc:  "nil-disableable types (telemetry Recorder and metric handles, journal Writer, attrib and autotune engines) must open writing methods with the nil-receiver guard",
	Run:  runTelemetryPure,
}

// nilGuardTargets lists the (package, type) pairs whose nil receiver means
// "feature off". ExportedOnly limits the check to the type's public API:
// the journal Writer's unexported *Locked helpers write unguarded by design
// — they are reachable only from guarded exported methods that already hold
// the receiver non-nil (and its mutex).
var nilGuardTargets = []struct {
	Pkg, Type    string
	ExportedOnly bool
}{
	{Pkg: "telemetry", Type: "Recorder"},
	{Pkg: "telemetry", Type: "Counter"},
	{Pkg: "telemetry", Type: "Gauge"},
	{Pkg: "telemetry", Type: "Histogram"},
	{Pkg: "telemetry", Type: "CounterVec"},
	{Pkg: "telemetry", Type: "HistogramVec"},
	{Pkg: "journal", Type: "Writer", ExportedOnly: true},
	{Pkg: "attrib", Type: "Engine", ExportedOnly: true},
	{Pkg: "autotune", Type: "Engine", ExportedOnly: true},
}

// isNilGuardTarget reports whether named is one of the nilGuardTargets.
func isNilGuardTarget(named *types.Named) bool {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for _, t := range nilGuardTargets {
		if obj.Pkg().Name() == t.Pkg && obj.Name() == t.Type {
			return true
		}
	}
	return false
}

// atomicWriteMethods are the sync/atomic value-type methods that mutate.
var atomicWriteMethods = map[string]bool{
	"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true,
	"Or": true, "And": true,
}

func runTelemetryPure(prog *Program, rep *Reporter) {
	for _, pkg := range prog.Packages {
		for _, target := range nilGuardTargets {
			if pkg.Name != target.Pkg {
				continue
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Recv == nil || fd.Body == nil {
						continue
					}
					if target.ExportedOnly && !fd.Name.IsExported() {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					named := RecvNamed(fn)
					if named == nil || named.Obj().Name() != target.Type {
						continue
					}
					recv := recvObj(pkg, fd)
					wpos, writes := findRecorderWrite(pkg, fd, recv, named)
					if !writes {
						continue
					}
					if !opensWithNilGuard(pkg, fd, recv) {
						rep.Reportf(fd.Pos(),
							"(*%s).%s writes (first write at %s) but does not open with the nil-receiver guard — the disabled %s path must be write-free",
							target.Type, fd.Name.Name, prog.Fset.Position(wpos), target.Pkg)
					}
				}
			}
		}
	}
}

// recvObj returns the receiver variable's object, or nil for unnamed
// receivers.
func recvObj(pkg *Package, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// rootedAtRecv reports whether expr is a selector/index/call chain starting
// at the receiver variable.
func rootedAtRecv(pkg *Package, recv types.Object, expr ast.Expr) bool {
	if recv == nil {
		return false
	}
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return pkg.Info.Uses[e] == recv
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun
		default:
			return false
		}
	}
}

// findRecorderWrite locates the first receiver-rooted write in the body:
// an assignment through the receiver, a mutating sync/atomic method call on
// receiver state, an old-style atomic.XxxYyy(&r.field, ...) call, or a
// method call on another nil-disableable type held in receiver state (a
// metric handle: r.calls.At(i).Add(1)). own is the receiver's type.
func findRecorderWrite(pkg *Package, fd *ast.FuncDecl, recv types.Object, own *types.Named) (token.Pos, bool) {
	var pos token.Pos
	found := false
	mark := func(p token.Pos) {
		if !found {
			pos, found = p, true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootedAtRecv(pkg, recv, lhs) {
					mark(lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if rootedAtRecv(pkg, recv, n.X) {
				mark(n.Pos())
			}
		case *ast.CallExpr:
			callee := ResolveCall(pkg, n)
			if callee.Kind != CalleeStatic {
				return true
			}
			fn := callee.Fn
			if named := RecvNamed(fn); named != nil && named.Obj() != own.Obj() && isNilGuardTarget(named) {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && rootedAtRecv(pkg, recv, sel.X) {
					mark(n.Pos())
					return true
				}
			}
			if FuncPkgPath(fn) == "sync/atomic" {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					// Method form: r.counter.Add(1).
					if atomicWriteMethods[fn.Name()] && rootedAtRecv(pkg, recv, sel.X) {
						mark(n.Pos())
						return true
					}
				}
				// Function form: atomic.AddUint64(&r.field, 1).
				if len(n.Args) > 0 {
					if ue, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok &&
						ue.Op == token.AND && rootedAtRecv(pkg, recv, ue.X) {
						mark(n.Pos())
					}
				}
			}
		}
		return true
	})
	return pos, found
}

// opensWithNilGuard reports whether the body's first statement is
// `if r == nil { return ... }` (the condition may carry extra `||`
// disjuncts after the nil test).
func opensWithNilGuard(pkg *Package, fd *ast.FuncDecl, recv types.Object) bool {
	if recv == nil || len(fd.Body.List) == 0 {
		return false
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil {
		return false
	}
	if len(ifs.Body.List) != 1 {
		return false
	}
	if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); !ok {
		return false
	}
	return condHasNilTest(pkg, recv, ifs.Cond)
}

func condHasNilTest(pkg *Package, recv types.Object, cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			return condHasNilTest(pkg, recv, e.X) || condHasNilTest(pkg, recv, e.Y)
		case token.EQL:
			return isRecvNilPair(pkg, recv, e.X, e.Y) || isRecvNilPair(pkg, recv, e.Y, e.X)
		}
	}
	return false
}

func isRecvNilPair(pkg *Package, recv types.Object, a, b ast.Expr) bool {
	id, ok := ast.Unparen(a).(*ast.Ident)
	if !ok || pkg.Info.Uses[id] != recv {
		return false
	}
	if tv, ok := pkg.Info.Types[ast.Unparen(b)]; ok {
		return tv.IsNil()
	}
	return false
}
