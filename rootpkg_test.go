package rcbr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
func TestControlPathReadsOneClock(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/switchfab", "internal/mesh", "internal/netproto"} {
		for _, f := range nonTestFiles(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					t.Errorf("%s: time.%s call; the control path reads metrics.Nanotime",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
