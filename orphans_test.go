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
	checkAllow(t, "orphanAllow", orphanAllow, orphans,
		"production code reaches or which does not exist",
		"is exported but unreachable from cmd/*, examples/*, internal/bench and the root facade: "+
			"delete it, call it, or add it to orphanAllow with a reason")
	t.Run("knobs", func(t *testing.T) { checkKnobs(t, c) })
}

// checkKnobs is the census of options: every exported field of a knob
// struct under internal/ must be set — a composite-literal key, an
// assignment target or a taken address — by code the census reached,
// other than the struct's own methods (its defaults). A knob nothing
// sets has one value in use and should be a constant; the ones that
// stay are entered in knobAllow with the reason, under the same rot
// rule as orphanAllow.
//
// A knob struct is an exported *Config, *Options or *Policy struct, or
// an exported struct without methods that travels with one inside its
// package: the type of one of its fields, or of a parameter beside it
// in a function's signature (sta.Corner beside sta.BatchConfig).
func checkKnobs(t *testing.T, c *census) {
	owner := map[*types.Var]*types.TypeName{} // each knob, by the struct that declares it
	for _, tn := range c.knobStructs() {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				owner[f] = tn
			}
		}
	}

	set := map[*types.Var]bool{}
	visit := func(di *declInfo, recv *types.TypeName) {
		mark := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if f, ok := di.info.Uses[id].(*types.Var); ok && owner[f] != nil && owner[f] != recv {
					set[f] = true
				}
			}
		}
		ast.Inspect(di.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				// A slice, array or map literal's keys are no fields.
				if st, ok := di.info.TypeOf(n).Underlying().(*types.Struct); ok {
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(kv.Key)
						} else {
							set[st.Field(i)] = true // positional: every field in order
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			}
			return true
		})
	}
	for obj := range c.reached {
		var recv *types.TypeName
		if f, ok := obj.(*types.Func); ok {
			if r := f.Type().(*types.Signature).Recv(); r != nil {
				recv = namedOf(r.Type()).Obj()
			}
		}
		visit(c.decls[obj], recv)
	}
	for pkg := range c.pkgSeen {
		for _, di := range c.inits[pkg] {
			visit(di, nil)
		}
	}

	unset := map[string]bool{}
	for f, tn := range owner {
		if !set[f] {
			unset[c.name(tn)+"."+f.Name()] = true
		}
	}
	checkAllow(t, "knobAllow", knobAllow, unset,
		"production code sets or which does not exist",
		"is a knob nothing reachable from cmd/*, examples/*, internal/bench and the root facade sets: "+
			"make it a constant, set it, or add it to knobAllow with a reason")
}

// knobStructs lists the knob structs of internal/ (see checkKnobs).
func (c *census) knobStructs() []*types.TypeName {
	seen := map[*types.TypeName]bool{}
	var out []*types.TypeName
	add := func(tn *types.TypeName) {
		if !seen[tn] {
			seen[tn] = true
			out = append(out, tn)
		}
	}
	// local is the exported struct of pkg that t is, points to or holds
	// a slice of; plain is local, if that struct has no methods.
	local := func(pkg *types.Package, t types.Type) *types.Named {
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		n := namedOf(t)
		if n == nil || n.Obj().Pkg() != pkg || !n.Obj().Exported() {
			return nil
		}
		if _, ok := n.Underlying().(*types.Struct); !ok {
			return nil
		}
		return n
	}
	plain := func(pkg *types.Package, t types.Type) {
		if n := local(pkg, t); n != nil && n.NumMethods() == 0 {
			add(n.Obj())
		}
	}
	var funcs []*types.Signature
	for _, pkg := range c.pkgs {
		if !strings.HasPrefix(pkg.Path(), "repro/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.TypeName:
				if _, ok := obj.Type().Underlying().(*types.Struct); ok && obj.Exported() &&
					(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
						strings.HasSuffix(name, "Policy")) {
					add(obj)
				}
				if n, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						funcs = append(funcs, n.Method(i).Type().(*types.Signature))
					}
				}
			case *types.Func:
				funcs = append(funcs, obj.Type().(*types.Signature))
			}
		}
	}
	for _, sig := range funcs {
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if n := local(params.At(i).Pkg(), params.At(i).Type()); n != nil && seen[n.Obj()] {
				for j := 0; j < params.Len(); j++ {
					plain(params.At(j).Pkg(), params.At(j).Type())
				}
				break
			}
		}
	}
	for i := 0; i < len(out); i++ {
		st := out[i].Type().Underlying().(*types.Struct)
		for j := 0; j < st.NumFields(); j++ {
			plain(out[i].Pkg(), st.Field(j).Type())
		}
	}
	return out
}

// namedOf is the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// checkAllow holds a census to its allow list: every name found must be
// listed, and every listed name must be found (so the list cannot rot),
// under a group with a reason.
func checkAllow(t *testing.T, list string, allow []allowGroup, found map[string]bool, stale, missing string) {
	t.Helper()
	allowed := map[string]bool{}
	for _, group := range allow {
		if strings.TrimSpace(group.reason) == "" {
			t.Errorf("%s group %v has no reason", list, group.names)
		}
		for _, n := range group.names {
			if allowed[n] {
				t.Errorf("%s lists %s twice", list, n)
			}
			allowed[n] = true
			if !found[n] {
				t.Errorf("%s lists %s, which %s: drop the entry", list, n, stale)
			}
		}
	}
	var unexplained []string
	for n := range found {
		if !allowed[n] {
			unexplained = append(unexplained, n)
		}
	}
	sort.Strings(unexplained)
	for _, n := range unexplained {
		t.Errorf("%s %s", n, missing)
	}
}

// allowGroup is a group of an allow list: names, and why they stay.
type allowGroup struct {
	reason string
	names  []string
}

// knobAllow is the census of knobs (see checkKnobs) that production
// never sets, grouped by why each one stays.
var knobAllow = []allowGroup{
	{"a seam a test substitutes: the in-process child runner of the ledger's own tests, the one " +
		"compiled store a crash matrix shares across its restarts", []string{
		"internal/bench.Options.Spawn",
		"internal/fleet.Options.Store",
	}},
	{"the load harness's population shape: vega-fleetd -loadtest runs the default mix, and " +
		"the load tests shrink it", []string{
		"internal/fleet/loadtest.Config.HotVariants",
		"internal/fleet/loadtest.Config.ColdEvery",
		"internal/fleet/loadtest.Config.SPCycles",
	}},
	{"ablations that no binary exposes: reset-state conditioning off (BenchmarkAblation_Conditioning) " +
		"and the knobs of lift.FuzzConstruct, itself in orphanAllow", []string{
		"internal/lift.Config.DisableConditioning",
		"internal/lift.FuzzConfig.Attempts",
		"internal/lift.FuzzConfig.Guided",
		"internal/lift.FuzzConfig.MaxOps",
		"internal/lift.FuzzConfig.Seed",
	}},
}

// orphanAllow is the census of exported declarations under internal/
// that production never reaches, grouped by why each one stays. Most
// are pinned by tests the floor names; the groups say which kind, so a
// re-anchor can retire a group's tests and its code together.
var orphanAllow = []allowGroup{
	{"reference implementation a differential test holds production to " +
		"(TestCornerGridMatchesNewLibrary and the aged-STA shape tests; sta's oracle_test.go; " +
		"every BMC trace test and FuzzIncrementalCover; TestFaultedPackedMatchesFailingNetlist and " +
		"inject's scalar oracle; TestNetlistPipelined)", []string{
		"internal/aging.NewLibrary",
		"internal/aging.Library.Factor",
		"internal/aging.Library.AgedTiming",
		"internal/bmc.Replay",
		"internal/fault.FailingNetlistMulti",
		"internal/module.Driver.ExecPipelined",
	}},
	{"the scalar reference engine.Packed and engine.FaultedPacked are held to, which no binary links: " +
		"FuzzPackedVsScalar, TestPackedLaneMatchesScalar, TestPackedSPAggregationIsExact, " +
		"TestProfileAccumulatesAcrossReset, TestKernelTruthTables and TestFaultedPackedMatchesFailingNetlist " +
		"in engine; the failing-netlist and shadow-replica tests in fault; " +
		"TestClockTreeShape and the datapath tests in synth; sim's own tests", []string{
		"internal/sim.New",
		"internal/sim.Simulator",
		"internal/sim.Simulator.EnableSP",
		"internal/sim.Simulator.Net",
		"internal/sim.Simulator.Output",
		"internal/sim.Simulator.Profile",
		"internal/sim.Simulator.Reset",
		"internal/sim.Simulator.Run",
		"internal/sim.Simulator.SetInput",
		"internal/sim.Simulator.SetInputBits",
		"internal/sim.Simulator.Settle",
		"internal/sim.Simulator.Step",
	}},
	{"a driver on the unit's own netlist: the per-chunk SP replay TestProfilePackedMatchesScalarReplay " +
		"holds the packed-lane replay to, and the units' golden-vs-netlist tests", []string{
		"internal/module.NewDriver",
	}},
	{"paper §6.3 extension (fuzzing-based test construction) that no binary " +
		"exposes; kept by its own tests and BenchmarkAblation_FuzzVsFormal", []string{
		"internal/lift.FuzzConstruct",
		"internal/lift.FuzzConfig",
	}},
	{"aging-model physics the floor tests check directly (front-loading, recovery, temperature " +
		"acceleration); production reaches the model only through DelayFactor", []string{
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
	{"ISA mnemonic that cpu_test.go's instruction tests assemble; no workload or emitted test uses it yet", []string{
		"internal/isa.Asm.Divu", "internal/isa.Asm.Rem",
		"internal/isa.Asm.Mulh", "internal/isa.Asm.Mulhsu", "internal/isa.Asm.Mulhu",
		"internal/isa.Asm.Lb", "internal/isa.Asm.Lh", "internal/isa.Asm.Lhu", "internal/isa.Asm.Sh",
		"internal/isa.Asm.FcvtWS", "internal/isa.Asm.Feq", "internal/isa.Asm.Fmax",
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
	}},
	{"the daemon's full in-process record (the result read back from its frame in the log, the source " +
		"from its blob) that the crash matrices, restart and quarantine tests hold the daemon to; the " +
		"HTTP surface serves a job's header and its result apart, and never reads its source", []string{
		"internal/fleet.Server.Job",
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
	dirs := moduleDirs(t)
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
			return isSource(dir, fi.Name())
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
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{}}
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

// moduleDirs maps the import path of every package directory of the
// module to the directory, skipping hidden directories and testdata.
func moduleDirs(t *testing.T) map[string]string {
	t.Helper()
	dirs := map[string]string{}
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
	return dirs
}

// isSource reports whether file name of dir is non-test Go source that
// the build context compiles.
func isSource(dir, name string) bool {
	ok, err := build.Default.MatchFile(dir, name)
	return ok && err == nil && !strings.HasSuffix(name, "_test.go")
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
