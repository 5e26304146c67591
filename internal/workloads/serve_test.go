package workloads

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneDefinitionPerProgram: a catalog program's DSL graph (Build) is its
// only encrypted definition. What it means is EvalPlain, and clients hold a
// decrypted response to it at VerifyTol, so every entry carries both and no
// hand-written Reference.
func TestOneDefinitionPerProgram(t *testing.T) {
	for _, w := range ServeWorkloads() {
		if w.Build == nil || w.EvalPlain == nil {
			t.Errorf("%s: Build and EvalPlain are both required", w.Name)
		}
		if !(w.VerifyTol > 0) {
			t.Errorf("%s: VerifyTol %g, want > 0 so clients check the result", w.Name, w.VerifyTol)
		}
		if w.Reference != nil {
			t.Errorf("%s: a second encrypted definition (Reference)", w.Name)
		}
	}
}

// TestCatalogNamesNoEvaluator: no non-test file of internal/workloads or
// internal/tensor names ckks.Evaluator, so neither package can grow a second
// executor beside the graph serving runs. The one exemption is the type of
// ServeWorkload.Reference, a field kept only for the frozen benchmark.
func TestCatalogNamesNoEvaluator(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join("..", "tensor", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	fset := token.NewFileSet()
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ckksName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "cinnamon/internal/ckks" {
				ckksName = "ckks"
				if imp.Name != nil {
					ckksName = imp.Name.Name
				}
			}
		}
		if ckksName == "" {
			continue
		}
		exempt := referenceFieldType(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil && n == exempt {
				return false
			}
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Evaluator" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == ckksName {
					t.Errorf("%s: names ckks.Evaluator", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	if checked < 8 {
		t.Fatalf("parsed only %d non-test files: the walk lost its packages", checked)
	}
}

// referenceFieldType returns the type expression of ServeWorkload.Reference
// if f declares it, else nil.
func referenceFieldType(f *ast.File) ast.Expr {
	var typ ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "ServeWorkload" {
			return typ == nil
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.Name == "Reference" {
						typ = field.Type
					}
				}
			}
		}
		return false
	})
	return typ
}
