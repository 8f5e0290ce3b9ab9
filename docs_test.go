package vega_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docs are the documents that describe the code as it is. (CHANGES.md
// and ROADMAP.md are history and plans: they may name what is gone.)
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docBudget is the ceiling, in bytes, on each document that describes
// the system. A change that shortens one lowers its figure here in the
// same diff; one that must add prose cuts as much elsewhere in it.
var docBudget = map[string]int64{
	"DESIGN.md":      114_677,
	"EXPERIMENTS.md": 179_280,
}

// TestDocBudget is the ratchet behind documents that describe the
// system, not its history: DESIGN.md and EXPERIMENTS.md may only shrink.
func TestDocBudget(t *testing.T) {
	for doc, budget := range docBudget {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := fi.Size(); n > budget {
			t.Errorf("%s is %d bytes, over its ceiling of %d: cut it back", doc, n, budget)
		} else if n < budget {
			t.Logf("%s is %d bytes, %d under its ceiling: lower docBudget to lock the cut in", doc, n, budget-n)
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// a binary, by its directory (./cmd/vega-fleetd) or by its name
	// (vega-bench); the `vega` subcommands are written `vega sta`.
	binary = regexp.MustCompile(`\./cmd/([\w-]+)|\b(vega-[a-z0-9]+)`)
	// notBinaries are vega-NAME spellings that name something else.
	notBinaries = map[string]bool{"vega-rec": true} // the job-record header
	// testWord is a test, fuzz target or benchmark named without a
	// package, or a method so named (core's Workflow.TestQuality); a
	// trailing * makes it a prefix.
	testWord = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*)(\*)?`)
)

// TestDocsHaveNoPlaceholders: the documents carry no unfilled _TODO
// token, every back-ticked pkg.Name or pkg.Type.Member they cite, for
// every package under internal/, is declared in that package (or is a
// ledger metric of that name), every test, fuzz target and benchmark
// they name is declared in a _test.go file, and every binary they name
// is a directory under cmd/, so a rename or a deletion cannot leave the
// prose behind.
func TestDocsHaveNoPlaceholders(t *testing.T) {
	metrics := ledgerMetrics(t)
	tests := testFuncs(t)
	declared := map[string]map[string]bool{}
	for path, dir := range moduleDirs(t) {
		if strings.HasPrefix(path, "repro/internal/") {
			declared[filepath.Base(dir)] = declaredNames(t, dir)
		}
	}
	pkgs := make([]string, 0, len(declared))
	for pkg := range declared {
		pkgs = append(pkgs, pkg)
	}
	// A trailing * or ( is looked at to skip wildcards.
	citation := regexp.MustCompile(`\b(` + strings.Join(pkgs, "|") + `)\.(\(?\*?[A-Za-z_]\w*\)?)(?:\.([A-Za-z_]\w*))?(\*)?`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "_TODO") {
				t.Errorf("%s:%d: unfilled placeholder: %s", doc, i+1, strings.TrimSpace(line))
			}
			for _, m := range binary.FindAllStringSubmatch(line, -1) {
				name := m[1] + m[2]
				if fi, err := os.Stat(filepath.Join("cmd", name)); !notBinaries[name] && (err != nil || !fi.IsDir()) {
					t.Errorf("%s:%d: names %s, which is no directory under cmd/", doc, i+1, m[0])
				}
			}
			for _, m := range testWord.FindAllStringSubmatch(line, -1) {
				name, wild := m[1], m[2] != ""
				method := slices.ContainsFunc(pkgs, func(pkg string) bool { return declared[pkg]["."+name] })
				if !method && !slices.ContainsFunc(tests, func(fn string) bool { return fn == name || wild && strings.HasPrefix(fn, name) }) {
					t.Errorf("%s:%d: names %s%s, which no _test.go file declares", doc, i+1, name, m[2])
				}
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

// testFuncs lists the tests, fuzz targets and benchmarks the module's
// _test.go files declare.
func testFuncs(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, dir := range moduleDirs(t) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testWord.MatchString(fn.Name.Name) {
					out = append(out, fn.Name.Name)
				}
			}
		}
	}
	return out
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
