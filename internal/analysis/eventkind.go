package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// EventKind keeps the per-VC event vocabulary and the latency instruments
// honest — the invariant class behind PR 2's EventResync bug, where a kind
// constant existed, had a wire name, and was never emitted anywhere:
//
//  1. Every package-level Event* constant of a type named EventKind must
//     be referenced outside its declaration and its kind-name table —
//     i.e. actually emitted (or re-exported) somewhere in library code.
//  2. Every such constant must appear as a key in a composite-literal
//     name table in its declaring package, so String() never renders it
//     as "unknown".
//  3. Every histogram a package creates through the metrics registry
//     must be observed by that package: a latency histogram that is
//     registered and cached but never fed records a permanent zero,
//     which reads as "nothing is slow" on every dashboard. The check
//     ties each Registry.Histogram call to the field or variable it is
//     stored in and looks for an Observe/ObserveSince through that name,
//     or for that name handed to a function as a *Histogram argument (a
//     shared observe helper; the Observe is then the callee's).
//
// The emission check scans every package the run loaded, so — like
// metricname's uniqueness rule — it is meaningful for whole-module runs
// (./...), which is how CI invokes rcbrlint.
var EventKind = &Analyzer{
	Name: "eventkind",
	Doc:  "every EventKind constant is named and emitted; every created histogram is observed",
	Run:  runEventKind,
}

func runEventKind(pass *Pass) error {
	checkEventConsts(pass)
	checkHistogramLiveness(pass)
	return nil
}

// checkEventConsts applies rules 1 and 2 to the Event* constants the
// current package declares.
func checkEventConsts(pass *Pass) {
	type eventConst struct {
		name string
		pos  ast.Node
	}
	var consts []eventConst
	declared := make(map[string]bool)
	for _, f := range nonTestFiles(pass.Pkg) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.Pkg.Info.Defs[name].(*types.Const)
					if !ok || !strings.HasPrefix(name.Name, "Event") {
						continue
					}
					if !isNamed(obj.Type(), pass.Pkg.Path, "EventKind") && !isNamed(obj.Type(), "metrics", "EventKind") {
						continue
					}
					consts = append(consts, eventConst{name: name.Name, pos: name})
					declared[name.Name] = true
				}
			}
		}
	}
	if len(consts) == 0 {
		return
	}
	named := make(map[string]bool) // appears as a key in a composite-literal name table
	emitted := make(map[string]bool)
	for _, pkg := range pass.Repo.Sorted() {
		for _, f := range nonTestFiles(pkg) {
			tableKeys := compositeKeyUses(pkg, f)
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[id].(*types.Const)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pass.Pkg.Path || !declared[obj.Name()] {
					return true
				}
				if tableKeys[id] {
					named[obj.Name()] = true
					return true
				}
				emitted[obj.Name()] = true
				return true
			})
		}
	}
	for _, c := range consts {
		if !named[c.name] {
			pass.Reportf(c.pos.Pos(),
				"EventKind %s has no entry in the kind-name table; String() will render it as \"unknown\"", c.name)
		}
		if !emitted[c.name] {
			pass.Reportf(c.pos.Pos(),
				"EventKind %s is declared (and named) but never emitted anywhere in the repo", c.name)
		}
	}
}

// compositeKeyUses collects identifiers used as keys inside composite
// literals in f: the positions a kind-name table indexes by constant.
func compositeKeyUses(pkg *Package, f *ast.File) map[*ast.Ident]bool {
	keys := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			// Only index keys (array/map tables) count; Kind: EventSetup
			// in a struct literal is an emission, and its key is the
			// field name, not the constant.
			if id, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
				if _, isConst := pkg.Info.Uses[id].(*types.Const); isConst {
					keys[id] = true
				}
			}
		}
		return true
	})
	return keys
}

// checkHistogramLiveness applies rule 3 to the current package.
func checkHistogramLiveness(pass *Pass) {
	info := pass.Pkg.Info
	type creation struct {
		binding string // field or variable the histogram is stored in
		pos     ast.Node
	}
	var creations []creation
	observed := make(map[string]bool)
	markObserved := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			observed[e.Sel.Name] = true
		case *ast.Ident:
			observed[e.Name] = true
		}
	}
	anonCreations := 0
	totalObserves := 0
	for _, f := range nonTestFiles(pass.Pkg) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, ok := registryCall(info, call); ok && kind == "Histogram" {
				if name := bindingName(f, call); name != "" {
					creations = append(creations, creation{binding: name, pos: call})
				} else {
					anonCreations++
				}
				return true
			}
			for _, arg := range call.Args {
				if isNamed(info.TypeOf(arg), "metrics", "Histogram") {
					markObserved(arg)
				}
			}
			recv, fn := methodCall(info, call)
			if fn == nil {
				return true
			}
			if (fn.Name() == "Observe" || fn.Name() == "ObserveSince") && isNamed(info.TypeOf(recv), "metrics", "Histogram") {
				totalObserves++
				markObserved(recv)
			}
			return true
		})
	}
	sort.Slice(creations, func(i, j int) bool { return creations[i].pos.Pos() < creations[j].pos.Pos() })
	for _, c := range creations {
		if !observed[c.binding] {
			pass.Reportf(c.pos.Pos(),
				"histogram stored in %q is created but never observed in this package; a registered-but-unfed histogram reads as a permanent zero", c.binding)
		}
	}
	if anonCreations > 0 && totalObserves == 0 {
		pass.Reportf(pass.Pkg.Files[0].Pos(),
			"package creates %d histogram(s) but never observes any", anonCreations)
	}
}

// bindingName finds the field or variable a registry call's result is
// stored into: the value side of a composite-literal field, or the target
// of an assignment.
func bindingName(f *ast.File, call *ast.CallExpr) string {
	var name string
	ast.Inspect(f, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if ast.Unparen(n.Value) == call {
				if id, ok := n.Key.(*ast.Ident); ok {
					name = id.Name
					return false
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if ast.Unparen(rhs) != call || i >= len(n.Lhs) {
					continue
				}
				switch lhs := ast.Unparen(n.Lhs[i]).(type) {
				case *ast.Ident:
					name = lhs.Name
				case *ast.SelectorExpr:
					name = lhs.Sel.Name
				}
				return false
			}
		}
		return true
	})
	return name
}
