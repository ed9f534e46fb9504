package generator_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestGeneratorPackagePurity is a lint-style audit: every generator
// must be a pure function of its seed, so the package's non-test
// sources must not import "time" (event times are virtual, computed
// from the config) and must not call math/rand's
// global, process-seeded functions — rand may only be used to build
// seeded sources (rand.New, rand.NewSource, rand.NewZipf) and to name
// its types. A violation here is a hidden-state bug even if every
// current test still passes.
func TestGeneratorPackagePurity(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	allowedRand := map[string]bool{
		// Seeded constructors.
		"New": true, "NewSource": true, "NewZipf": true,
		// Type names.
		"Rand": true, "Source": true, "Zipf": true,
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		randAlias := ""
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "time" {
				t.Errorf("%s imports %q: generators must compute virtual time, not read the wall clock", name, path)
			}
			if path == "math/rand" || path == "math/rand/v2" {
				randAlias = "rand"
				if imp.Name != nil {
					randAlias = imp.Name.Name
				}
			}
		}
		if randAlias == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != randAlias {
				return true
			}
			if !allowedRand[sel.Sel.Name] {
				pos := fset.Position(sel.Pos())
				t.Errorf("%s:%d: %s.%s uses math/rand's global (process-seeded) state; draw from a seeded *rand.Rand instead",
					name, pos.Line, randAlias, sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no generator sources found — is the test running in the package directory?")
	}
}
