package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// MetricName enforces the repository's metric-naming contract:
//
//  1. Every metric name passed to the metrics registry (Registry.Counter,
//     Registry.CounterFunc, Registry.Gauge, Registry.Histogram) is either a package-level
//     constant named Metric*, or the result of a helper builder whose
//     name ends in Counter, Gauge, or Histogram (PortReservedGauge,
//     AdmitCounter, ...). Raw string literals and ad-hoc variables are
//     rejected: a typo'd literal silently records to a dead name.
//  2. Every Metric* string constant matches ^[a-z]+(\.[a-z_]+)+$ — the
//     dotted lower-case namespace the README metric tables document.
//  3. Every metric name is declared exactly once repo-wide. Another
//     package wanting the name uses the owning constant; a second
//     declaration lets the two drift apart. Findings are reported at
//     every declaration outside the owning (import-path-smallest)
//     package.
//
// The uniqueness check is repo-wide, so it is only meaningful when
// rcbrlint runs over the whole module (./...), as CI does.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "metric names are registered Metric* constants, well-formed and owned by one package",
	Run:  runMetricName,
}

var metricNameRE = regexp.MustCompile(`^[a-z]+(\.[a-z_]+)+$`)

// helperBuilderRE matches the names of functions allowed to build metric
// names dynamically (per-port gauges, per-policy counters).
var helperBuilderRE = regexp.MustCompile(`(Counter|Gauge|Histogram)$`)

func runMetricName(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := registryCall(info, call)
			if !ok || len(call.Args) == 0 {
				return true
			}
			checkMetricArg(pass, kind, call.Args[0])
			return true
		})
	}
	checkMetricConstDecls(pass)
	return nil
}

// checkMetricArg validates the name argument of one registry lookup.
func checkMetricArg(pass *Pass, kind string, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if c := constRef(pass.Pkg.Info, arg); c != nil {
		if !strings.HasPrefix(c.Name(), "Metric") {
			pass.Reportf(arg.Pos(),
				"metric name constant %s must be named Metric* so rcbrlint can track it", c.Name())
		}
		// Well-formedness and uniqueness are checked at the declaration.
		return
	}
	if call, ok := arg.(*ast.CallExpr); ok {
		if name, ok := calleeName(pass.Pkg.Info, call); ok {
			if !helperBuilderRE.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name built by %s; name-builder helpers must end in Counter, Gauge, or Histogram", name)
			}
			return
		}
	}
	switch arg.(type) {
	case *ast.BasicLit:
		pass.Reportf(arg.Pos(),
			"metric name passed to Registry.%s as a string literal; declare a package-level Metric* constant", kind)
	default:
		pass.Reportf(arg.Pos(),
			"metric name passed to Registry.%s must be a package-level Metric* constant or a *Counter/*Gauge/*Histogram helper", kind)
	}
}

// calleeName resolves the called function's name, if statically known.
func calleeName(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Name(), true
	}
	return "", false
}

// metricDecl is one Metric* constant declaration found in library code.
type metricDecl struct {
	pkg   string
	name  string
	value string
	pos   token.Pos
}

// checkMetricConstDecls validates the Metric* constants the current
// package declares, including repo-wide uniqueness.
func checkMetricConstDecls(pass *Pass) {
	mine := metricDecls(pass.Pkg)
	if len(mine) == 0 {
		return
	}
	// Declarations across the whole repo, by metric name value.
	owners := make(map[string][]metricDecl)
	for _, pkg := range pass.Repo.Sorted() {
		for _, d := range metricDecls(pkg) {
			owners[d.value] = append(owners[d.value], d)
		}
	}
	for _, d := range mine {
		if !metricNameRE.MatchString(d.value) {
			pass.Reportf(d.pos, "metric name %q does not match %s", d.value, metricNameRE)
		}
		dups := owners[d.value]
		if len(dups) < 2 {
			continue
		}
		sort.Slice(dups, func(i, j int) bool {
			if dups[i].pkg != dups[j].pkg {
				return dups[i].pkg < dups[j].pkg
			}
			return dups[i].pos < dups[j].pos
		})
		if owner := dups[0]; owner.pkg != d.pkg {
			pass.Reportf(d.pos,
				"metric name %q is owned by %s (%s); use that constant instead of declaring it again",
				d.value, owner.pkg, owner.name)
		} else if owner.pos != d.pos {
			pass.Reportf(d.pos,
				"metric name %q is declared twice in %s; keep a single declaration", d.value, d.pkg)
		}
	}
}

// metricDecls lists the package-level Metric* string constants declared in
// pkg's library files.
func metricDecls(pkg *Package) []metricDecl {
	var out []metricDecl
	for _, f := range nonTestFiles(pkg) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Metric") {
						continue
					}
					obj, ok := pkg.Info.Defs[name].(*types.Const)
					if !ok || obj.Val().Kind() != constant.String {
						continue
					}
					out = append(out, metricDecl{
						pkg:   pkg.Path,
						name:  name.Name,
						value: constant.StringVal(obj.Val()),
						pos:   name.Pos(),
					})
				}
			}
		}
	}
	return out
}
