package rcbr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestRootPackageExportsNothing keeps the root package a package comment and
// nothing else: the code is imported from internal/ by its own names, and a
// re-export layer here would have no caller.
func TestRootPackageExportsNothing(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if ast.FileExports(f) {
				t.Errorf("%s declares exported identifiers; the root package exports nothing", name)
			}
		}
	}
}
