package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFirst enforces context plumbing through the signaling surface — the
// netproto and mesh packages, the layers whose exported entry points
// perform (or lead directly to) network I/O or model its latency with real
// timers:
//
//  1. An exported function or method that takes a context.Context must
//     take it as the first parameter.
//  2. A function that has a context parameter must not mint its own
//     context.Background() or context.TODO(): that silently discards the
//     caller's cancellation and deadline mid-call-chain.
//  3. An exported function or method that calls a context-aware callee
//     (one whose first parameter is a context.Context) must itself take a
//     context first — otherwise it has nothing real to pass down and rule
//     2's bug becomes structurally required. Deliberate context-free
//     legacy constructors carry a //rcbrlint:ignore ctxfirst directive
//     with their justification.
//
// Packages outside the signaling surface (simulation, math, cmd mains)
// are exempt: their call graphs never leave the process.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported signaling entry points take context.Context first and propagate it",
	Run:  runCtxFirst,
}

// ctxScopePkgs names the package basenames the analyzer applies to.
var ctxScopePkgs = map[string]bool{"netproto": true, "mesh": true}

func runCtxFirst(pass *Pass) error {
	if !ctxScopePkgs[pkgBase(pass.Pkg.Path)] {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sig := funcSignature(info, fd)
			if sig == nil {
				continue
			}
			hasCtx, first := ctxParam(sig)
			if fd.Name.IsExported() && hasCtx && !first {
				pass.Reportf(fd.Pos(),
					"exported %s takes a context.Context, but not as its first parameter", fd.Name.Name)
			}
			if fd.Body == nil {
				continue
			}
			if hasCtx {
				reportFreshContexts(pass, fd)
			}
			if fd.Name.IsExported() && !hasCtx {
				reportCtxAwareCalls(pass, fd)
			}
		}
	}
	return nil
}

func funcSignature(info *types.Info, fd *ast.FuncDecl) *types.Signature {
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return obj.Type().(*types.Signature)
}

// ctxParam reports whether sig has a context.Context parameter, and
// whether it is the first one.
func ctxParam(sig *types.Signature) (has, first bool) {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true, i == 0
		}
	}
	return false, false
}

// reportFreshContexts flags context.Background()/context.TODO() calls in
// a function that already has a context parameter to use.
func reportFreshContexts(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [2]string{"Background", "TODO"} {
			if pkgFuncCall(info, call, "context", name) {
				pass.Reportf(call.Pos(),
					"%s has a context parameter but calls context.%s(); pass the caller's context down",
					fd.Name.Name, name)
			}
		}
		return true
	})
}

// reportCtxAwareCalls flags calls to context-aware callees from an
// exported function with no leading context parameter of its own.
func reportCtxAwareCalls(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies run on their creator's schedule, not here
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || reported {
			return true
		}
		sig := calleeSignature(info, call)
		if !ctxAware(sig) {
			return true
		}
		reported = true // one finding per function is enough to force the refactor
		pass.Reportf(fd.Pos(),
			"exported %s calls a context-aware function (%s) but takes no context.Context itself; accept one as the first parameter and pass it through",
			fd.Name.Name, types.ExprString(call.Fun))
		return true
	})
}

// calleeSignature resolves the static signature of a call, or nil.
func calleeSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := types.Unalias(t).Underlying().(*types.Signature)
	return sig
}
