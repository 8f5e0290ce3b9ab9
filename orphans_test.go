package vega_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoOrphanExports is the gate behind ROADMAP's "every exported
// identifier has a production caller, or it goes": it type-checks the
// non-test source of the whole module and lists every exported func,
// method and type under internal/ that nothing reachable from a binary
// (cmd/*, examples/*), the ledger (internal/bench) or the root facade
// ever references. Whatever it lists must be deleted, called, or entered
// in orphanAllow with the reason it stays — and an entry that has become
// reachable, or names nothing, fails too, so the list cannot rot.
//
// Reachability is by declaration: a reachable declaration reaches every
// module-level object its source mentions; a reachable package reaches
// its init functions and variable initialisers; a reachable type
// reaches those of its methods that some interface it implements (the
// module's or the standard library's) can call.
func TestNoOrphanExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree, and what it imports of the standard library, from source")
	}
	c := loadModule(t)
	c.markRoots("repro", "repro/internal/bench", "repro/cmd/", "repro/examples/")
	c.propagate()

	orphans := map[string]bool{}
	for obj, d := range c.decls {
		if !c.reached[obj] && obj.Exported() && d.countable &&
			strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
			orphans[c.name(obj)] = true
		}
	}
	allowed := map[string]bool{}
	for _, group := range orphanAllow {
		if strings.TrimSpace(group.reason) == "" {
			t.Errorf("orphanAllow group %v has no reason", group.names)
		}
		for _, n := range group.names {
			if allowed[n] {
				t.Errorf("orphanAllow lists %s twice", n)
			}
			allowed[n] = true
			if !orphans[n] {
				t.Errorf("orphanAllow lists %s, which production code reaches or which does not exist: drop the entry", n)
			}
		}
	}
	var unexplained []string
	for n := range orphans {
		if !allowed[n] {
			unexplained = append(unexplained, n)
		}
	}
	sort.Strings(unexplained)
	for _, n := range unexplained {
		t.Errorf("%s is exported but unreachable from cmd/*, examples/*, internal/bench and the root facade: "+
			"delete it, call it, or add it to orphanAllow with a reason", n)
	}
}

// orphanAllow is the census of exported declarations under internal/
// that production never reaches, grouped by why each one stays. Most
// are pinned by tests the floor names; the groups say which kind, so a
// re-anchor can retire a group's tests and its code together.
var orphanAllow = []struct {
	reason string
	names  []string
}{
	{"reference implementation a differential test holds production to " +
		"(TestCornerGridMatchesNewLibrary and the aged-STA shape tests; sta's oracle_test.go; " +
		"every BMC trace test and FuzzIncrementalCover; TestFaultedPackedMatchesFailingNetlist and " +
		"inject's scalar oracle; TestNetlistPipelined; TestEvalTruthTables)", []string{
		"internal/aging.NewLibrary",
		"internal/aging.Library.Factor",
		"internal/aging.Library.AgedTiming",
		"internal/bmc.Replay",
		"internal/cell.Kind.Eval",
		"internal/fault.FailingNetlistMulti",
		"internal/module.Driver.ExecPipelined",
	}},
	{"drives the scalar evaluator beside the packed one in FuzzPackedVsScalar, " +
		"TestPackedLaneMatchesScalar and TestPackedSPAggregationIsExact, and through the scalar SP " +
		"replay TestProfilePackedMatchesScalarReplay holds the packed-lane replay to (a driver on the " +
		"unit's own netlist, idle cycles by count); the units' golden-vs-netlist tests use the same two", []string{
		"internal/sim.Simulator.SetInputBits",
		"internal/sim.Simulator.Run",
		"internal/module.NewDriver",
	}},
	{"paper §6.2/§6.3 extension (temperature sweep, fuzzing-based test construction) that no binary " +
		"exposes; kept by its own tests and BenchmarkAblation_FuzzVsFormal", []string{
		"internal/core.Workflow.TemperatureSweep",
		"internal/core.TempPoint",
		"internal/lift.FuzzConstruct",
		"internal/lift.FuzzConfig",
	}},
	{"aging-model physics the floor tests check directly (curve shape, front-loading, recovery, " +
		"temperature acceleration); production reaches the model only through DelayFactor", []string{
		"internal/aging.DegradationCurve",
		"internal/aging.CurvePoint",
		"internal/aging.Model.DeltaVthNorm",
		"internal/aging.Model.Recovery",
	}},
	{"gate-level guard costing: EXPERIMENTS.md's guard-area table is TestUnitGateCosts' output and " +
		"TestGateGuardsSilent* prove the synthesized checkers quiet; no binary prints either", []string{
		"internal/alu.BuildGuarded",
		"internal/fpu.BuildGuarded",
		"internal/guard.GateCost",
		"internal/guard.UnitGateCosts",
	}},
	{"ISA mnemonic for an op cpu.execute implements: the assembler covers the CPU's instruction set, " +
		"not only what today's workloads and emitted tests happen to use", []string{
		"internal/isa.Asm.Auipc", "internal/isa.Asm.Csrrc", "internal/isa.Asm.Divu", "internal/isa.Asm.Rem",
		"internal/isa.Asm.Mulh", "internal/isa.Asm.Mulhsu", "internal/isa.Asm.Mulhu",
		"internal/isa.Asm.Lb", "internal/isa.Asm.Lh", "internal/isa.Asm.Lhu", "internal/isa.Asm.Sh",
		"internal/isa.Asm.Nop", "internal/isa.Asm.Ori",
		"internal/isa.Asm.Slt", "internal/isa.Asm.Slti", "internal/isa.Asm.Sltiu", "internal/isa.Asm.Sltu",
		"internal/isa.Asm.Sra", "internal/isa.Asm.Srai", "internal/isa.Asm.Srl",
		"internal/isa.Asm.FcvtSW", "internal/isa.Asm.FcvtSWU", "internal/isa.Asm.FcvtWS", "internal/isa.Asm.FcvtWUS",
		"internal/isa.Asm.Feq", "internal/isa.Asm.Fle", "internal/isa.Asm.Flt",
		"internal/isa.Asm.Fmax", "internal/isa.Asm.Fmin", "internal/isa.Asm.Fsgnjx",
	}},
	{"test harness support: crash matrices count I/O steps and crash points on the injected FS; " +
		"bmc/fault/sta/sim fixtures look cells up by name; determinism and isolation tests shuffle a " +
		"suite or clone a netlist or module", []string{
		"internal/chaos.Injected.Crashed",
		"internal/chaos.Injected.Steps",
		"internal/demo.CellIDByName",
		"internal/core.ShuffledSuite",
		"internal/module.Module.Clone",
		"internal/netlist.Netlist.Clone",
		"internal/netlist.Builder.Cell",
		"internal/sim.Simulator.Program",
	}},
	{"floor test only — inspection and debugging surface (waveforms, VCD, DOT, disassembly, fan-out " +
		"cones, SP read-back) and API halves (onset bisection, corner re-targeting, the inject spec " +
		"parser, client cancel/poll) with no production caller: candidates to retire with their tests", []string{
		"internal/sim.Simulator.Cycles",
		"internal/sim.Simulator.Record",
		"internal/sim.Simulator.RecordPorts",
		"internal/sim.Simulator.ResetSP",
		"internal/sim.Simulator.SP",
		"internal/sim.Simulator.VCD",
		"internal/sim.Simulator.Waves",
		"internal/netlist.Netlist.DOT",
		"internal/netlist.Netlist.FanoutCone",
		"internal/isa.Image.Disassemble",
		"internal/engine.Profile.CellSP",
		"internal/engine.FaultedPacked.Retired",
		"internal/cell.Kind.IsCombinational",
		"internal/core.SortedResults",
		"internal/core.Workflow.OnsetBisect",
		"internal/sta.Incremental.SetCorners",
		"internal/inject.ParseSpec",
		"internal/fleet.Client.Cancel",
		"internal/fleet.Client.Job",
		"internal/synth.C.RotateLeft",
		"internal/synth.C.SignExtend",
	}},
}

// declInfo is one module-level declaration: the syntax its references
// are read from, and whether the census reports it.
type declInfo struct {
	node      ast.Node
	info      *types.Info
	countable bool // func, method or type (vars and consts only carry edges)
}

type census struct {
	fset    *token.FileSet
	pkgs    map[string]*types.Package // module packages by import path
	decls   map[types.Object]*declInfo
	inits   map[*types.Package][]*declInfo // init funcs and var initialisers
	ifaces  []*types.Interface             // every interface a method set can be called through
	reached map[types.Object]bool
	pkgSeen map[*types.Package]bool
	queue   []types.Object
}

// loadModule parses and type-checks every non-test package of the
// module, resolving module imports to its own checked packages (so one
// object stands for one declaration everywhere) and the standard
// library from source.
func loadModule(t *testing.T) *census {
	t.Helper()
	c := &census{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*types.Package{},
		decls:   map[types.Object]*declInfo{},
		inits:   map[*types.Package][]*declInfo{},
		reached: map[types.Object]bool{},
		pkgSeen: map[*types.Package]bool{},
	}
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			dirs[filepath.ToSlash(filepath.Join("repro", path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// No cgo: the pure-Go variants of net and os/user type-check without
	// a C toolchain.
	saved := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = saved }()
	std := importer.ForCompiler(c.fset, "source", nil)

	var load func(path string) (*types.Package, error)
	load = func(path string) (*types.Package, error) {
		if p, ok := c.pkgs[path]; ok {
			return p, nil
		}
		dir, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		parsed, err := parser.ParseDir(c.fset, dir, func(fi fs.FileInfo) bool {
			ok, err := build.Default.MatchFile(dir, fi.Name())
			return ok && err == nil && !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, p := range parsed {
			for _, f := range p.Files {
				files = append(files, f)
			}
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: importerFunc(load)}
		pkg, err := conf.Check(path, c.fset, files, info)
		if err != nil {
			return nil, err
		}
		c.pkgs[path] = pkg
		c.index(pkg, files, info)
		return pkg, nil
	}
	for path := range dirs {
		if _, err := load(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	c.collectInterfaces()
	return c
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// index records the declaration node of every module-level object and
// method of one package.
func (c *census) index(pkg *types.Package, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				di := &declInfo{node: d, info: info, countable: true}
				if d.Recv == nil && d.Name.Name == "init" {
					c.inits[pkg] = append(c.inits[pkg], di)
				} else if obj := info.Defs[d.Name]; obj != nil {
					c.decls[obj] = di
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						c.decls[info.Defs[spec.Name]] = &declInfo{node: spec, info: info, countable: true}
					case *ast.ValueSpec:
						di := &declInfo{node: spec, info: info}
						if d.Tok == token.VAR {
							c.inits[pkg] = append(c.inits[pkg], di)
						}
						for _, n := range spec.Names {
							if obj := info.Defs[n]; obj != nil {
								c.decls[obj] = di
							}
						}
					}
				}
			}
		}
	}
}

// collectInterfaces gathers every named interface of the module and of
// every package it imports, directly or not.
func (c *census) collectInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					c.ifaces = append(c.ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		visit(p)
	}
	// The universe's one interface with methods.
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// markRoots reaches every declaration of the packages whose import path
// equals a root or, for a root ending in "/", starts with it.
func (c *census) markRoots(roots ...string) {
	for obj := range c.decls {
		path := obj.Pkg().Path()
		for _, r := range roots {
			if path == r || (strings.HasSuffix(r, "/") && strings.HasPrefix(path, r)) {
				c.reach(obj)
			}
		}
	}
}

func (c *census) reach(obj types.Object) {
	if _, ours := c.decls[obj]; !ours || c.reached[obj] {
		return
	}
	c.reached[obj] = true
	c.queue = append(c.queue, obj)
}

func (c *census) propagate() {
	for len(c.queue) > 0 {
		obj := c.queue[len(c.queue)-1]
		c.queue = c.queue[:len(c.queue)-1]
		if pkg := obj.Pkg(); !c.pkgSeen[pkg] {
			c.pkgSeen[pkg] = true
			for _, di := range c.inits[pkg] {
				c.scan(di)
			}
		}
		c.scan(c.decls[obj])
		if tn, ok := obj.(*types.TypeName); ok {
			c.reachCallableMethods(tn)
		}
	}
}

// scan reaches every module-level object a declaration's source names.
func (c *census) scan(di *declInfo) {
	ast.Inspect(di.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := di.info.Uses[id]; obj != nil {
				if f, ok := obj.(*types.Func); ok {
					obj = f.Origin()
				}
				c.reach(obj)
			}
		}
		return true
	})
}

// reachCallableMethods reaches the methods of a reachable type that an
// interface it implements could dispatch to.
func (c *census) reachCallableMethods(tn *types.TypeName) {
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok || named.NumMethods() == 0 {
		return
	}
	if named.TypeParams().Len() > 0 {
		// Implements needs an instantiated type; reach every method.
		for i := 0; i < named.NumMethods(); i++ {
			c.reach(named.Method(i))
		}
		return
	}
	ptr := types.NewPointer(named)
	for _, it := range c.ifaces {
		if !types.Implements(named, it) && !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), it.Method(i).Name())
			if m != nil {
				c.reach(m)
			}
		}
	}
}

// name renders an object the way orphanAllow spells it:
// "internal/pkg.Func", "internal/pkg.Type", "internal/pkg.Type.Method".
func (c *census) name(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "repro/")
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return fmt.Sprintf("%s.%s.%s", pkg, t.(*types.Named).Obj().Name(), f.Name())
		}
	}
	return pkg + "." + obj.Name()
}
