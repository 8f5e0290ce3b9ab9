package vega_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docs are the documents that describe the code as it is. (CHANGES.md
// and ROADMAP.md are history and plans: they may name what is gone.)
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// pkg.Name or pkg.Type.Member, for the packages whose seams the docs
	// describe most; a trailing * or ( is looked at to skip wildcards.
	citation = regexp.MustCompile(`\b(cpu|guard|module|inject)\.(\(?\*?[A-Za-z_]\w*\)?)(?:\.([A-Za-z_]\w*))?(\*)?`)
)

// TestDocsHaveNoPlaceholders: the documents carry no unfilled _TODO
// token, and every back-ticked cpu./guard./module./inject. identifier
// they cite is declared in that package (or is a ledger metric of that
// name), so a rename or a deletion cannot leave the prose behind.
func TestDocsHaveNoPlaceholders(t *testing.T) {
	metrics := ledgerMetrics(t)
	declared := map[string]map[string]bool{}
	for _, pkg := range []string{"cpu", "guard", "module", "inject"} {
		declared[pkg] = declaredNames(t, "internal/"+pkg)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "_TODO") {
				t.Errorf("%s:%d: unfilled placeholder: %s", doc, i+1, strings.TrimSpace(line))
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range citation.FindAllStringSubmatch(span, -1) {
					pkg, name, member, wild := m[1], strings.Trim(m[2], "(*)"), m[3], m[4]
					if wild != "" || metrics[pkg+"."+name] || metrics[pkg+"."+name+"_s"] || name == "go" {
						continue // inject.*, a ledger metric, the span a metric times, a file name
					}
					if !declared[pkg][name] && !declared[pkg]["."+name] {
						t.Errorf("%s:%d: cites `%s.%s`, which internal/%s does not declare", doc, i+1, pkg, name, pkg)
					} else if member != "" && !declared[pkg][name+"."+member] {
						t.Errorf("%s:%d: cites `%s.%s.%s`: internal/%s declares %s but no such method or field",
							doc, i+1, pkg, name, member, pkg, name)
					}
				}
			}
		}
	}
}

// ledgerMetrics reads the per-layer metric names (cpu.instret,
// inject.waves, …), which share the pkg.name spelling with identifiers.
func ledgerMetrics(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range manifest.PerLayer {
		out[m.Name] = true
	}
	return out
}

// declaredNames lists what a package directory (tests included — the
// docs cite oracles that live there) declares at top level, plus
// "Type.Member" for every method and struct field and ".Method" for
// every method.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						out[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						out[id.Name+"."+d.Name.Name] = true
						out["."+d.Name.Name] = true // cited package-style: cpu.RunCtx
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								out[n.Name] = true
							}
						case *ast.TypeSpec:
							out[spec.Name.Name] = true
							var fields *ast.FieldList
							switch tt := spec.Type.(type) {
							case *ast.StructType:
								fields = tt.Fields
							case *ast.InterfaceType:
								fields = tt.Methods
							}
							if fields != nil {
								for _, fl := range fields.List {
									for _, n := range fl.Names {
										out[spec.Name.Name+"."+n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
