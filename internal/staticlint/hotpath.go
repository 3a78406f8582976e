package staticlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath proves `//shalom:hotpath` annotations: the annotated function and
// every statically-resolved module callee must be free of the annotated
// operation classes. The proof is conservative — a construct that cannot be
// shown safe (a dynamic call, a call into an unvetted stdlib function) is a
// violation, with `//shalom:allow hotpath` as the per-line escape hatch for
// cases the human has argued.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions annotated //shalom:hotpath are transitively free of the banned operation classes",
	Run:  runHotpath,
}

// noallocAllow lists stdlib calls proven not to allocate: "pkg.Func" for
// package functions, "pkg.Type.Method" for methods. Whole packages are
// allowed via the "pkg.*" form.
var noallocAllow = map[string]bool{
	"math.*": true, "math/bits.*": true, "sync/atomic.*": true, "unsafe.*": true,
	"time.Now": true, "time.Since": true, "time.Sleep": true,
	"time.Time.Sub": true, "time.Time.IsZero": true, "time.Time.After": true,
	"time.Time.Before": true, "time.Time.Equal": true, "time.Time.UnixNano": true,
	"time.Duration.Microseconds": true, "time.Duration.Milliseconds": true,
	"time.Duration.Nanoseconds": true, "time.Duration.Seconds": true,
	"sync.Mutex.Lock": true, "sync.Mutex.Unlock": true, "sync.Mutex.TryLock": true,
	"sync.RWMutex.Lock": true, "sync.RWMutex.Unlock": true,
	"sync.RWMutex.RLock": true, "sync.RWMutex.RUnlock": true,
	"sync.WaitGroup.Add": true, "sync.WaitGroup.Done": true, "sync.WaitGroup.Wait": true,
}

// lockRecvTypes are the sync types whose method calls violate nolock.
var lockRecvTypes = map[string]bool{
	"sync.Mutex": true, "sync.RWMutex": true, "sync.Once": true,
	"sync.Map": true, "sync.Cond": true,
}

// blockingCalls violate noblock; clockCalls violate notime.
var blockingCalls = map[string]bool{
	"time.Sleep": true, "sync.WaitGroup.Wait": true, "sync.Cond.Wait": true,
	"runtime.Gosched": true,
}
var clockCalls = map[string]bool{
	"time.Now": true, "time.Since": true, "time.After": true, "time.Tick": true,
}

// callKey renders fn as "pkg.Func" or "pkg.Type.Method" for the tables.
func callKey(fn *types.Func) string {
	pkg := FuncPkgPath(fn)
	if named := RecvNamed(fn); named != nil {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

func runHotpath(prog *Program, rep *Reporter) {
	idx := prog.Index()

	type work struct {
		info    *FuncInfo
		classes ClassSet
		root    string // annotation origin, for transitive findings
	}
	required := map[*types.Func]ClassSet{}
	var queue []work

	for _, hd := range prog.Annots.Hotpaths() {
		if hd.BadSpec != "" {
			rep.Reportf(hd.Decl.Pos(), "%s", hd.BadSpec)
			continue
		}
		if hd.Fn == nil {
			continue
		}
		info := idx.Lookup(hd.Fn)
		if info == nil || info.Decl.Body == nil {
			rep.Reportf(hd.Decl.Pos(), "//shalom:hotpath on %s: no body to verify", hd.Fn.Name())
			continue
		}
		queue = append(queue, work{info: info, classes: hd.Classes, root: hd.Fn.FullName()})
	}

	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		have := required[w.info.Fn]
		if have != nil && have.contains(w.classes) {
			continue
		}
		required[w.info.Fn] = have.union(w.classes)

		c := &hotpathChecker{
			prog: prog, rep: rep, idx: idx,
			pkg: w.info.Pkg, fn: w.info.Fn, classes: w.classes, root: w.root,
		}
		c.check(w.info.Decl)
		for _, callee := range c.callees {
			queue = append(queue, work{info: callee, classes: w.classes, root: w.root})
		}
	}
}

// hotpathChecker walks one function body under one class-set requirement.
type hotpathChecker struct {
	prog    *Program
	rep     *Reporter
	idx     *Index
	pkg     *Package
	fn      *types.Func
	classes ClassSet
	root    string
	callees []*FuncInfo
}

func (c *hotpathChecker) violate(pos token.Pos, class, format string, args ...any) {
	if !c.classes[class] {
		return
	}
	msg := fmt.Sprintf(format, args...)
	where := ""
	if c.fn.FullName() != c.root {
		where = fmt.Sprintf(" (in %s, required by //shalom:hotpath on %s)", c.fn.FullName(), c.root)
	}
	c.rep.Reportf(pos, "%s: %s%s", class, msg, where)
}

func (c *hotpathChecker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// boxes reports whether assigning from to to boxes a concrete value into an
// interface (an allocation for non-pointer-shaped values).
func (c *hotpathChecker) boxes(to types.Type, from ast.Expr) bool {
	if to == nil || !isInterface(to) {
		return false
	}
	tv, ok := c.pkg.Info.Types[from]
	if !ok || tv.Type == nil {
		return false
	}
	return !tv.IsNil() && !isInterface(tv.Type)
}

// isInterface reports whether t is an interface type. A type parameter is
// not one, although its underlying type is its constraint: a parameter of
// type-parameter type takes its type argument unboxed, and a value of
// type-parameter type is boxed when it is assigned to an interface.
func isInterface(t types.Type) bool {
	_, param := t.(*types.TypeParam)
	return !param && types.IsInterface(t)
}

func (c *hotpathChecker) check(decl *ast.FuncDecl) {
	sig, _ := c.fn.Type().(*types.Signature)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.CompositeLit:
			switch c.typeOf(n).Underlying().(type) {
			case *types.Map:
				c.violate(n.Pos(), ClassNoAlloc, "map literal allocates")
			case *types.Slice:
				c.violate(n.Pos(), ClassNoAlloc, "slice literal allocates")
			}
		case *ast.UnaryExpr:
			switch n.Op {
			case token.AND:
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.violate(n.Pos(), ClassNoAlloc, "address-taken composite literal escapes to the heap")
				}
			case token.ARROW:
				c.violate(n.Pos(), ClassNoLock, "channel receive")
				c.violate(n.Pos(), ClassNoBlock, "channel receive can block")
			}
		case *ast.FuncLit:
			c.violate(n.Pos(), ClassNoAlloc, "function literal may allocate a closure")
			return false
		case *ast.GoStmt:
			c.violate(n.Pos(), ClassNoAlloc, "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := c.typeOf(n); t != nil && isString(t) {
					c.violate(n.Pos(), ClassNoAlloc, "string concatenation allocates")
				}
			}
		case *ast.SendStmt:
			c.violate(n.Pos(), ClassNoLock, "channel send")
			c.violate(n.Pos(), ClassNoBlock, "channel send can block")
		case *ast.SelectStmt:
			c.violate(n.Pos(), ClassNoLock, "select statement synchronizes on channels")
			hasDefault := false
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				c.violate(n.Pos(), ClassNoBlock, "select without default can block")
			}
		case *ast.RangeStmt:
			if t := c.typeOf(n.X); t != nil && isChan(t) {
				c.violate(n.Pos(), ClassNoLock, "range over channel")
				c.violate(n.Pos(), ClassNoBlock, "range over channel can block")
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if c.boxes(c.typeOf(n.Lhs[i]), n.Rhs[i]) {
						c.violate(n.Rhs[i].Pos(), ClassNoAlloc, "assignment boxes a concrete value into an interface")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					if c.boxes(sig.Results().At(i).Type(), res) {
						c.violate(res.Pos(), ClassNoAlloc, "return boxes a concrete value into an interface")
					}
				}
			}
		}
		return true
	})
}

func (c *hotpathChecker) checkCall(call *ast.CallExpr) {
	callee := ResolveCall(c.pkg, call)
	switch callee.Kind {
	case CalleeConversion:
		to := c.typeOf(call.Fun)
		if len(call.Args) == 1 && to != nil {
			from := c.typeOf(call.Args[0])
			switch {
			case from == nil:
			case isString(to) && isByteOrRuneSlice(from),
				isByteOrRuneSlice(to) && isString(from):
				c.violate(call.Pos(), ClassNoAlloc, "string/slice conversion allocates")
			case c.boxes(to, call.Args[0]):
				c.violate(call.Pos(), ClassNoAlloc, "conversion boxes a concrete value into an interface")
			}
		}
		return
	case CalleeBuiltin:
		switch callee.Builtin.Name() {
		case "make", "new", "append":
			c.violate(call.Pos(), ClassNoAlloc, "builtin %s allocates", callee.Builtin.Name())
		}
		return
	case CalleeDynamic:
		kind := "dynamic call through a func value"
		if callee.Iface {
			kind = "interface method call"
		}
		for _, cl := range []string{ClassNoAlloc, ClassNoLock, ClassNoBlock, ClassNoTime} {
			c.violate(call.Pos(), cl, "%s cannot be proven %s-safe", kind, cl)
		}
		return
	}

	// Static call: box-check the arguments against the signature, then
	// classify the target.
	fn := callee.Fn
	if sig, ok := fn.Type().(*types.Signature); ok && c.classes[ClassNoAlloc] {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis == token.NoPos {
					pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
					// Passing through variadic also allocates the backing
					// slice at the call site.
					if i == params.Len()-1 {
						c.violate(call.Pos(), ClassNoAlloc, "variadic call to %s allocates its argument slice", callKey(fn))
					}
				} else {
					pt = params.At(params.Len() - 1).Type()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			if c.boxes(pt, arg) {
				c.violate(arg.Pos(), ClassNoAlloc, "argument to %s boxes a concrete value into an interface", callKey(fn))
			}
		}
	}

	if info := c.idx.Lookup(fn); info != nil {
		if info.Decl.Body == nil {
			c.violate(call.Pos(), ClassNoAlloc, "call to bodyless %s cannot be verified", callKey(fn))
			return
		}
		c.callees = append(c.callees, info)
		return
	}

	// Imported call: vet against the class tables.
	key := callKey(fn)
	pkgStar := FuncPkgPath(fn) + ".*"
	if clockCalls[key] {
		c.violate(call.Pos(), ClassNoTime, "%s reads the clock", key)
	}
	if blockingCalls[key] {
		c.violate(call.Pos(), ClassNoBlock, "%s can block", key)
	}
	if named := RecvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		if lockRecvTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
			c.violate(call.Pos(), ClassNoLock, "%s is a locking primitive", key)
		}
	}
	if !noallocAllow[key] && !noallocAllow[pkgStar] {
		c.violate(call.Pos(), ClassNoAlloc, "call to %s is not on the noalloc allowlist", key)
	}
}
