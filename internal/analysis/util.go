package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Type- and AST-level helpers shared by the analyzers. Package identity is
// matched structurally (by path, or basename for the repo's own packages)
// rather than by object identity, because analyzer testdata substitutes
// tiny fake packages ("metrics", "net", "sync", ...) for the real ones.

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkg.name, where pkg matches the import path exactly or as its final
// element ("metrics" matches both "metrics" and "rcbr/internal/metrics").
func isNamed(t types.Type, pkg, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Name() != name || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// calleeFunc resolves the function object a call statically invokes: a
// plain function, a method on a concrete receiver, or an interface method.
// Calls through function values and built-ins resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFuncCall reports whether call invokes the package-level function
// pkg.name (pkg matched as in isNamed).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	obj := calleeFunc(info, call)
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// methodCall returns the receiver expression and method object if call is
// a method call (x.M(...)) resolved through a selection; otherwise nils.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method *types.Func) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil, nil
	}
	m, ok := selection.Obj().(*types.Func)
	if !ok {
		return nil, nil
	}
	return sel.X, m
}

// registryCall reports whether call is Registry.Counter, CounterFunc, Gauge
// or Histogram on a metrics.Registry, returning the method name.
func registryCall(info *types.Info, call *ast.CallExpr) (kind string, ok bool) {
	recv, method := methodCall(info, call)
	if method == nil {
		return "", false
	}
	switch method.Name() {
	case "Counter", "CounterFunc", "Gauge", "Histogram":
	default:
		return "", false
	}
	if !isNamed(info.TypeOf(recv), "metrics", "Registry") {
		return "", false
	}
	return method.Name(), true
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// sentinelVar returns the package-level error variable named Err* that e
// refers to, or nil.
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// constRef returns the constant object e refers to, or nil.
func constRef(info *types.Info, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	c, _ := info.Uses[id].(*types.Const)
	return c
}

// nonTestFiles yields the package's library files with their indices.
func nonTestFiles(pkg *Package) []*ast.File {
	out := make([]*ast.File, 0, len(pkg.Files))
	for i, f := range pkg.Files {
		if !pkg.TestFiles[i] {
			out = append(out, f)
		}
	}
	return out
}
