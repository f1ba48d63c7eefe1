package rcbr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// nonTestFiles parses the non-test Go files of dir.
func nonTestFiles(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files parsed", dir)
	}
	return files
}

// pkgSel returns Name when n is the selector expression pkg.Name, else "".
func pkgSel(n ast.Node, pkg string) string {
	if sel, ok := n.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
			return sel.Sel.Name
		}
	}
	return ""
}

// TestRootPackageExportsNothing keeps the root package a package comment and
// nothing else: the code is imported from internal/ by its own names, and a
// re-export layer here would have no caller.
func TestRootPackageExportsNothing(t *testing.T) {
	fset := token.NewFileSet()
	for _, f := range nonTestFiles(t, fset, ".") {
		if ast.FileExports(f) {
			t.Errorf("%s declares exported identifiers; the root package exports nothing", fset.Position(f.Pos()).Filename)
		}
	}
}

// TestControlPathReadsOneClock keeps the wall clock off the control path:
// switchfab, mesh and netproto take their time from metrics.Nanotime — read
// once per operation and handed down — so a time.Now or time.Since call in
// their non-test files is a second clock creeping back in. (Wall stamps for
// people, Event.Time and Snapshot.TakenAt, are made in internal/metrics.)
//
// The data plane is held to a stricter rule: internal/datapath reads no
// clock at all — no time.Now or time.Since call, not even metrics.Nanotime.
// A sweep's only time is the nowNanos its caller hands Forward, which is the
// property ROADMAP 1b's virtual time needs from the cell path: whoever owns
// the clock owns every shaper's.
func TestControlPathReadsOneClock(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/switchfab", "internal/mesh", "internal/netproto", "internal/datapath"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name := pkgSel(call.Fun, "time"); name == "Now" || name == "Since" {
						t.Errorf("%s: time.%s call; the control path reads metrics.Nanotime, the data plane no clock",
							fset.Position(call.Pos()), name)
					}
				}
				if dir == "internal/datapath" && pkgSel(n, "metrics") == "Nanotime" {
					t.Errorf("%s: metrics.Nanotime; the data plane takes its time from Forward's caller",
						fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
}

// TestLockRulesInSource holds the two lock rules of DESIGN §11 that can be
// read off the source (a lint analyzer's job until PR 22, DESIGN §9). Rings
// are single-producer/single-consumer and synchronize with atomics alone, so
// no ring-named struct in internal/datapath declares or embeds a mutex. And a
// switch operation works under exactly one port mutex — which is what makes
// the fabric deadlock-free with no order among ports — so no function in
// internal/switchfab calls Lock twice: whatever else is locked under a port
// (an admitter's mutex, the VC table's writer mutex) is locked by a callee
// that locks nothing further.
func TestLockRulesInSource(t *testing.T) {
	fset := token.NewFileSet()
	isMutex := func(e ast.Expr) bool {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		name := pkgSel(e, "sync")
		return name == "Mutex" || name == "RWMutex"
	}
	for _, f := range nonTestFiles(t, fset, "internal/datapath") {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !(strings.Contains(ts.Name.Name, "Ring") || strings.HasPrefix(ts.Name.Name, "ring")) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, field := range st.Fields.List {
					if isMutex(field.Type) {
						t.Errorf("%s: ring type %s holds a mutex; rings synchronize with atomics only",
							fset.Position(field.Pos()), ts.Name.Name)
					}
				}
			}
			return true
		})
	}
	for _, f := range nonTestFiles(t, fset, "internal/switchfab") {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locks := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
						locks++
					}
				}
				return true
			})
			if locks > 1 {
				t.Errorf("%s: %s calls Lock %d times; a switchfab function locks one mutex",
					fset.Position(fd.Pos()), fd.Name.Name, locks)
			}
		}
	}
}

// TestEveryEventKindIsEmitted holds the rule PR 2's EventResync bug taught —
// the kind was declared, had a wire name, and nothing recorded it: every
// Event* constant of internal/metrics/eventlog.go is named as metrics.<Kind>
// by a non-test file under internal/ or cmd/ (a lint analyzer's job until
// PR 24, DESIGN §9; metrics.TestEveryEventKindHasAWireName holds the names).
func TestEveryEventKindIsEmitted(t *testing.T) {
	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "internal/metrics/eventlog.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	ast.Inspect(src, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && strings.HasPrefix(vs.Names[0].Name, "Event") {
			kinds = append(kinds, vs.Names[0].Name)
		}
		return true
	})
	if len(kinds) == 0 {
		t.Fatal("no Event* constants found in eventlog.go")
	}
	named := map[string]bool{} // every X some non-test file writes as metrics.X
	internal, _ := filepath.Glob("internal/*")
	cmds, _ := filepath.Glob("cmd/*")
	for _, dir := range append(internal, cmds...) {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				named[pkgSel(n, "metrics")] = true
				return true
			})
		}
	}
	for _, kind := range kinds {
		if !named[kind] {
			t.Errorf("metrics.%s is declared and named but no non-test file emits it", kind)
		}
	}
}

// TestSignalingPassesTheCallersContext holds context plumbing through the
// signaling surface, netproto and mesh: an exported function that takes a
// context.Context takes it first, and neither package mints
// context.Background or context.TODO — which an entry point reaching a
// context-aware callee with no context of its own would have to.
// mesh.detached's context.WithoutCancel(ctx) derives from the caller's and
// is the sanctioned way to outlive it.
func TestSignalingPassesTheCallersContext(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/netproto", "internal/mesh"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					for i, param := range fd.Type.Params.List {
						if pkgSel(param.Type, "context") == "Context" && (i > 0 || len(param.Names) > 1) {
							t.Errorf("%s: %s takes a context.Context, but not as its first parameter",
								fset.Position(fd.Pos()), fd.Name.Name)
						}
					}
				}
				if name := pkgSel(n, "context"); name == "Background" || name == "TODO" {
					t.Errorf("%s: context.%s minted on the signaling surface; pass the caller's context down",
						fset.Position(n.Pos()), name)
				}
				return true
			})
		}
	}
}

// TestEveryOptionHasACaller holds ROADMAP item 6's rule for knobs: every
// exported With* function under internal/ is named in a non-test file of
// this module or of bench/. An option only tests set is a configuration no
// program runs; it is deleted, or its caller is named here. Names are matched
// as pkg.WithX: no non-test file imports an internal package under an alias.
func TestEveryOptionHasACaller(t *testing.T) {
	allowed := map[string]string{
		"mesh.WithEvents": "ROADMAP 3b names its caller: rcbrd's /trace reads the mesh's event ring",
	}
	fset := token.NewFileSet()
	declared, used := map[string]token.Pos{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if name := d.Name(); err == nil && (name == "testdata" || len(name) > 1 && name[0] == '.') {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && strings.HasPrefix(n.Name.Name, "With") && strings.HasPrefix(path, "internal/") {
					declared[f.Name.Name+"."+n.Name.Name] = n.Pos()
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					used[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.CallExpr: // from inside the option's own package
				if id, ok := n.Fun.(*ast.Ident); ok {
					used[f.Name.Name+"."+id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range declared {
		if why := allowed[name]; !used[name] && why == "" {
			t.Errorf("%s: %s has no caller outside tests; delete it or name the caller", fset.Position(pos), name)
		} else if used[name] && why != "" {
			t.Errorf("%s has a caller now; take it off the allow-list (%s)", name, why)
		}
	}
}
