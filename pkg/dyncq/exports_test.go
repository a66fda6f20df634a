package dyncq

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateExports = flag.Bool("update-exports", false, "rewrite testdata/exports.golden from the package's current exports")

// TestExportedSurface lists the package's exported identifiers — types,
// functions, methods, constants and variables, one per line and sorted —
// and compares the list with testdata/exports.golden, so an export added
// or removed shows as a diff rather than a recount.
// After an intended change, regenerate the file with
//
//	go test ./pkg/dyncq -run TestExportedSurface -update-exports
func TestExportedSurface(t *testing.T) {
	got := exportedNames(t)
	const golden = "testdata/exports.golden"
	if *updateExports {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("exported but not in %s: %s", golden, name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("in %s but not exported: %s", golden, name)
		}
	}
	t.Logf("%d exported identifiers", len(got))
}

// exportedNames walks the package's non-test files: a method with an
// exported name is listed as Type.Method whatever its receiver (an
// unexported backend's Count is callable through an interface),
// everything else by its own name.
func exportedNames(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range pkgs["dyncq"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, d.Name.Name)
					continue
				}
				names = append(names, receiverType(d.Recv.List[0].Type)+"."+d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// receiverType is the name of a method's receiver type, pointer or not.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
