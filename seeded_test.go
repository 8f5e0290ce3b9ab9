package vega_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPropertyTestsSeeded is the census behind a floor whose cases do
// not change between runs: every testing/quick call of the module must
// pass a quick.Config that sets Rand, and no math/rand source may be
// seeded from the clock. quick.Check with a nil config, or a config
// without Rand, draws new cases from a time-seeded source on every run,
// so one run can pass a defect another catches; the fuzz targets are
// where new cases come from.
func TestPropertyTestsSeeded(t *testing.T) {
	fset := token.NewFileSet()
	var bad []string
	for _, dir := range moduleDirs(t) {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			bad = append(bad, unseeded(fset, f)...)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// unseeded lists file f's quick calls whose config draws cases from the
// clock, its quick.Config literals without Rand that no call takes, and
// its math/rand sources seeded from the time package.
func unseeded(fset *token.FileSet, f *ast.File) []string {
	local := map[string]string{} // import path -> the file's name for it
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		local[path] = name
	}
	quick, rnd, tm := local["testing/quick"], local["math/rand"], local["time"]
	is := func(e ast.Expr, pkg, sel string) bool {
		s, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || pkg == "" || s.Sel.Name != sel {
			return false
		}
		x, ok := s.X.(*ast.Ident)
		return ok && x.Name == pkg
	}
	// deref strips parentheses and one address-of.
	deref := func(e ast.Expr) ast.Expr {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return ast.Unparen(u.X)
		}
		return ast.Unparen(e)
	}
	// config is the quick.Config literal e spells or names, if any.
	config := func(e ast.Expr) *ast.CompositeLit {
		e = deref(e)
		if id, ok := e.(*ast.Ident); ok && id.Obj != nil {
			switch d := id.Obj.Decl.(type) {
			case *ast.AssignStmt:
				for i, l := range d.Lhs {
					if l, ok := l.(*ast.Ident); ok && l.Name == id.Name && i < len(d.Rhs) {
						e = d.Rhs[i]
					}
				}
			case *ast.ValueSpec:
				for i, n := range d.Names {
					if n.Name == id.Name && i < len(d.Values) {
						e = d.Values[i]
					}
				}
			}
			e = deref(e)
		}
		if lit, ok := e.(*ast.CompositeLit); ok && is(lit.Type, quick, "Config") {
			return lit
		}
		return nil
	}
	hasRand := func(lit *ast.CompositeLit) bool {
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
					return true
				}
			}
		}
		return false
	}

	var bad []string
	report := func(n ast.Node, why string) {
		bad = append(bad, fset.Position(n.Pos()).String()+": "+why)
	}
	taken := map[*ast.CompositeLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		switch {
		case is(call.Fun, quick, "Check") || is(call.Fun, quick, "CheckEqual"):
			arg := call.Args[len(call.Args)-1]
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == "nil" {
				report(call, "quick call with a nil config draws its cases from the clock")
			} else if lit := config(arg); lit == nil {
				report(call, "quick call with a config the census cannot read: spell a quick.Config with Rand")
			} else if taken[lit] = true; !hasRand(lit) {
				report(call, "quick call with a config without Rand draws its cases from the clock")
			}
		case is(call.Fun, rnd, "NewSource") || is(call.Fun, rnd, "Seed"):
			for _, a := range call.Args {
				ast.Inspect(a, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok && is(s, tm, s.Sel.Name) {
						report(call, "math/rand source seeded from the clock")
						return false
					}
					return true
				})
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && is(lit.Type, quick, "Config") && !taken[lit] && !hasRand(lit) {
			report(lit, "quick.Config without Rand")
		}
		return true
	})
	return bad
}
