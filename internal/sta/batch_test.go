package sta

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/netlist"
)

// randomTimedNetlist builds a random synchronous DAG with a random
// clock tree (buffer chains, optionally gated) so endpoints see skewed
// clock arrivals — the ingredient that produces hold violations and
// pairs violating both checks. Cells only read already-driven nets, so
// the result always validates.
func randomTimedNetlist(seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("t%d", seed))
	clk := b.Clock("clk")
	en := b.Input("en")
	nIn := 2 + rng.Intn(4)
	in := b.InputBus("x", nIn)
	pool := append(netlist.Bus{}, in...)

	// Clock branches of varying depth; DFFs pick a random leaf.
	leaves := netlist.Bus{clk}
	for i, branches := 0, 1+rng.Intn(3); i < branches; i++ {
		n := clk
		if rng.Intn(2) == 0 {
			n = b.Add(cell.CLKGATE, n, en)
		}
		for j, depth := 0, rng.Intn(4); j < depth; j++ {
			n = b.Add(cell.CLKBUF, n)
		}
		leaves = append(leaves, n)
	}
	pickClk := func() netlist.NetID { return leaves[rng.Intn(len(leaves))] }

	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.OR2, cell.NAND2,
		cell.NOR2, cell.XOR2, cell.XNOR2, cell.MUX2, cell.AOI21, cell.OAI21,
	}
	pool = append(pool, b.AddDFF(pool[rng.Intn(len(pool))], pickClk(), rng.Intn(2) == 0))
	pool = append(pool, b.AddDFF(pool[rng.Intn(len(pool))], pickClk(), rng.Intn(2) == 0))
	nCells := 10 + rng.Intn(40)
	for i := 0; i < nCells; i++ {
		if rng.Intn(4) == 0 {
			pool = append(pool, b.AddDFF(pool[rng.Intn(len(pool))], pickClk(), rng.Intn(2) == 0))
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		ins := make([]netlist.NetID, k.NumInputs())
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, b.Add(k, ins...))
	}
	for i := 0; i < 3 && i < len(pool); i++ {
		b.Output(fmt.Sprintf("y%d", i), pool[len(pool)-1-i])
	}
	return b.MustBuild()
}

// randomNetSP gives every net an independent random signal probability.
func randomNetSP(nl *netlist.Netlist, seed int64) *engine.Profile {
	rng := rand.New(rand.NewSource(seed))
	p := &engine.Profile{Cycles: 1, SP: make([]float64, nl.NumNets)}
	for i := range p.SP {
		p.SP[i] = rng.Float64()
	}
	return p
}

// scalarBaseline runs the differential baseline: one scalar Analyze per
// corner, building each corner's aged library independently, exactly as
// the pre-batched LifetimeSweep did.
func scalarBaseline(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) []*Result {
	out := make([]*Result, len(corners))
	for i, c := range corners {
		out[i] = Analyze(nl, scalarConfig(cfg, c))
	}
	return out
}

// scalarConfig is the scalar oracle's Config for one corner of cfg.
func scalarConfig(cfg BatchConfig, c Corner) Config {
	sc := Config{
		PeriodPs:    cfg.PeriodPs,
		Scale:       cfg.Scale,
		MaxPaths:    cfg.MaxPaths,
		PerEndpoint: cfg.PerEndpoint,
	}
	if c.Years > 0 {
		sc.Aged = aging.NewLibrary(cfg.Base, cfg.Model, c.Years)
		sc.Profile = cfg.Profile
	} else {
		sc.Base = cfg.Base
	}
	return sc
}

// randomCase derives a whole (netlist, profile, config, corners) case
// from one seed. The period is anchored to the fresh critical delay so
// a healthy share of cases has violations, and caps are sometimes tiny
// so truncation accounting is exercised hard.
func randomCase(seed int64) (*netlist.Netlist, BatchConfig, []Corner) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nl := randomTimedNetlist(seed)
	lib := cell.Lib28()
	crit := CriticalDelay(nl, lib)
	cfg := BatchConfig{
		PeriodPs: crit * (0.55 + 0.6*rng.Float64()),
		Base:     lib,
		Model:    aging.Default(),
		Profile:  randomNetSP(nl, seed+1),
	}
	if rng.Intn(3) == 0 {
		cfg.Scale = 0.5 + rng.Float64()
	}
	switch rng.Intn(3) {
	case 0:
		cfg.MaxPaths = 1 + rng.Intn(6)
		cfg.PerEndpoint = 1 + rng.Intn(4)
	case 1:
		cfg.PerEndpoint = 1 + rng.Intn(30)
	}
	if rng.Intn(2) == 0 {
		cfg.Parallelism = 8
	} else {
		cfg.Parallelism = 1
	}
	corners := make([]Corner, 1+rng.Intn(5))
	for i := range corners {
		var c Corner
		if rng.Intn(4) > 0 {
			c.Years = rng.Float64() * 12
		}
		corners[i] = c
	}
	return nl, cfg, corners
}

// TestBatchedMatchesScalar is the testing/quick property at the heart of
// the batched engine's contract: over randomized netlists, SP profiles,
// corner sets, scales, caps and parallelism, every per-corner Result —
// WNS, violation counts, truncation, the full sorted Pairs slice, delay
// factors and the embedded Config — must deep-equal the
// scalar baseline's. DeepEqual compares float64s with ==, so this is
// bit-identity, not tolerance.
func TestBatchedMatchesScalar(t *testing.T) {
	// same reports whether the batched Results deep-equal the oracle's,
	// handing back the oracle's when they do.
	same := func(seed int64, nl *netlist.Netlist, cfg BatchConfig, corners []Corner) []*Result {
		got := AnalyzeCorners(nl, cfg, corners)
		want := scalarBaseline(nl, cfg, corners)
		for k := range corners {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Logf("seed %d MaxPaths %d corner %d (%+v):\n  batched: %+v\n  scalar:  %+v",
					seed, cfg.MaxPaths, k, corners[k], got[k], want[k])
				return nil
			}
		}
		return want
	}
	prop := func(seed int64) bool {
		nl, cfg, corners := randomCase(seed)
		want := same(seed, nl, cfg, corners)
		if want == nil {
			return false
		}
		// A MaxPaths budget that lands exactly on a corner's last
		// violating path: truncation then turns on whether the walk took
		// another step after that hit.
		for _, r := range want {
			if n := r.NumSetupViolations + r.NumHoldViolations; n > 0 && !r.Truncated {
				cfg.MaxPaths = n
				return same(seed, nl, cfg, corners) != nil
			}
		}
		return true
	}
	// The same cases every run; FuzzBatchedVsScalar draws new ones.
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestClockLanesMatchOracle: the batched engine's clock lane of every
// flip-flop, at every corner, is bitwise the scalar oracle's late clock
// arrival — the aged clock-tree skew behind every hold violation. No
// Result carries clock arrivals, so this is the check that sees them.
func TestClockLanesMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		nl, cfg, corners := randomCase(seed)
		st := Annotate(nl, cfg, corners).evaluate()
		for k, c := range corners {
			a := newAnalysis(nl, scalarConfig(cfg, c))
			a.computeCellTiming()
			a.computeClockArrivals()
			for _, e := range st.g.endpoints {
				got, want := st.clk[int(e.clk)*st.K+k], a.clkLate[e.cellID]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d corner %d (%+v): flip-flop %s clock lane %v, oracle %v",
						seed, k, c, nl.Cells[e.cellID].Name, got, want)
				}
			}
		}
		st.release()
	}
}

// TestEvaluationSlabHoldsArrivalsOnly pins the evaluation slab's
// shape: two arrival lanes per net, one clock lane per clock net (a
// clock cell's clock input and output, a flip-flop's clock pin) and
// four K-lane scratch rows. Delays are derived at use, so no layer is
// per cell.
func TestEvaluationSlabHoldsArrivalsOnly(t *testing.T) {
	gated := false
	for seed := int64(0); seed < 10; seed++ {
		nl, cfg, corners := randomCase(seed)
		clockNets := map[netlist.NetID]bool{}
		for _, c := range nl.Cells {
			switch {
			case c.Kind.IsClock():
				clockNets[c.In[0]], clockNets[c.Out] = true, true
				gated = gated || c.Kind == cell.CLKGATE
			case c.Kind == cell.DFF:
				clockNets[c.Clk] = true
			}
		}
		st := Annotate(nl, cfg, corners).evaluate()
		K := len(corners)
		if st.g.numClk != len(clockNets) {
			t.Errorf("seed %d: %d clock slots for %d clock nets", seed, st.g.numClk, len(clockNets))
		}
		if want := K*(2*nl.NumNets+len(clockNets)) + 4*K; len(st.slab) != want {
			t.Errorf("seed %d: slab holds %d float64s, want %d (K=%d, %d nets, %d clock nets)",
				seed, len(st.slab), want, K, nl.NumNets, len(clockNets))
		}
		st.release()
	}
	if !gated {
		t.Fatal("no case had a gated clock tree")
	}
}

// TestDelayKernelsDoNotFuse: every kernel that adds a derived delay to an
// arrival must add the rounded product, as the scalar oracle does with
// the delay it stored, and the factor interpolation must round its
// position and products in the engine as in the oracle's
// aging.Library.Factor. Go lets a compiler fuse a multiply into an add,
// and arm64 does (FMADDD), so this compiles sta and aging for arm64 and
// fails on a fused multiply-add in any of them.
func TestDelayKernelsDoNotFuse(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command on PATH: %v", err)
	}
	cmd := exec.Command(goCmd, "build", "-gcflags=repro/internal/sta=-S", "-gcflags=repro/internal/aging=-S", ".")
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	listed := map[string]bool{"repro/internal/aging.(*Library).Factor": false}
	for _, fn := range []string{"(*batchState).cellDelays", "(*batchState).launch", "(*batchState).propOp",
		"(*batchState).propagate", "(*batchState).computeClockArrivals", "(*TimingGraph).walk",
		"(*Incremental).refreshEndpointQ", "(*Annotation).interpolate"} {
		listed["repro/internal/sta."+fn] = false
	}
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "STEXT" {
			fn = f[0]
			if _, ok := listed[fn]; ok {
				listed[fn] = true
			}
			continue
		}
		if _, ok := listed[fn]; !ok {
			continue
		}
		for _, op := range []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD"} {
			if strings.Contains(line, "\t"+op+"\t") {
				t.Errorf("%s fuses on arm64: %s", fn, strings.TrimSpace(line))
			}
		}
	}
	for fn, seen := range listed {
		if !seen {
			t.Errorf("no arm64 listing of %s", fn)
		}
	}
}

// TestAnnotationSharedAcrossGoroutines: one Annotation, analyzed from
// four goroutines at once, gives every caller what AnalyzeCorners gives
// for the same inputs, and no Analyze writes its factor columns.
func TestAnnotationSharedAcrossGoroutines(t *testing.T) {
	for _, seed := range []int64{3, 11, 17} {
		nl, cfg, corners := randomCase(seed)
		want := AnalyzeCorners(nl, cfg, corners)
		a := Annotate(nl, cfg, corners)
		before := append([]float64(nil), a.factor...)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if got := a.Analyze(); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d: a shared Annotation's Analyze differs from AnalyzeCorners", seed)
						return
					}
				}
			}()
		}
		wg.Wait()
		for i, f := range a.factor {
			if math.Float64bits(f) != math.Float64bits(before[i]) {
				t.Fatalf("seed %d: factor %d moved from %v to %v under Analyze", seed, i, before[i], f)
			}
		}
	}
}

// TestBatchedDeterminism pins the -j contract of the parallel
// enumerator: Parallelism 1 and 8 must produce byte-identical results —
// the merge applies the global budget in endpoint order, never in pool
// completion order.
func TestBatchedDeterminism(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		nl, cfg, corners := randomCase(seed)
		cfg.Parallelism = 1
		r1 := AnalyzeCorners(nl, cfg, corners)
		cfg.Parallelism = 8
		r8 := AnalyzeCorners(nl, cfg, corners)
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("seed %d: results differ between Parallelism 1 and 8", seed)
		}
	}
}

// TestPrecomputedLibsMatch is the contract behind BatchConfig.Libs (the
// fleet daemon's corner-grid reuse seam): AnalyzeCorners with libraries
// precomputed via CornerLibraries must be bit-identical to the same
// analysis deriving its own grid — DeepEqual over the full Results, same
// standard as the scalar differential.
func TestPrecomputedLibsMatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		nl, cfg, corners := randomCase(seed)
		want := AnalyzeCorners(nl, cfg, corners)
		cfg.Libs = CornerLibraries(nl.Name, cfg, corners)
		got := AnalyzeCorners(nl, cfg, corners)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: precomputed-Libs results differ from self-derived grid", seed)
		}
	}
}

// TestLibsLengthMismatchPanics pins the misuse guard: handing K libs to
// an analysis over a different corner count must panic rather than
// silently mis-age corners.
func TestLibsLengthMismatchPanics(t *testing.T) {
	nl, cfg, corners := randomCase(3)
	if len(corners) < 2 {
		corners = append(corners, Corner{Years: 5})
	}
	cfg.Libs = CornerLibraries(nl.Name, cfg, corners)[:1]
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched BatchConfig.Libs length did not panic")
		}
	}()
	AnalyzeCorners(nl, cfg, corners[:2])
}

// TestPairViolatingBothChecks is the regression for the pair-keying fix:
// a launch/capture pair whose data path violates setup through its slow
// branch and hold through its fast branch must yield two PairSummary
// entries — one per check — not one entry with a first-seen Type and a
// WorstSlack mixing the two checks.
//
// Lib28 arithmetic: capture's clock runs through one CLKBUF (28ps late).
// Fast branch Q->OR2 arrives at min 40+14 = 54ps, violating hold
// (required 28+30 = 58) by -4ps; slow branch Q->10xBUF->OR2 arrives at
// max 62+220+27 = 309ps, violating setup (required 200+28-46 = 182) by
// -127ps.
func TestPairViolatingBothChecks(t *testing.T) {
	b := netlist.NewBuilder("both")
	clk := b.Clock("clk")
	d0 := b.Input("d0")
	q := b.AddDFFNamed("launch", d0, clk, false)
	cclk := b.Add(cell.CLKBUF, clk)
	n := q
	for i := 0; i < 10; i++ {
		n = b.Add(cell.BUF, n)
	}
	or := b.Add(cell.OR2, q, n)
	capQ := b.AddDFFNamed("capture", or, cclk, false)
	b.Output("y", capQ)
	nl := b.MustBuild()

	res := Analyze(nl, Config{PeriodPs: 200, Base: cell.Lib28()})
	if math.Abs(res.WNSSetup+127) > 1e-9 || math.Abs(res.WNSHold+4) > 1e-9 {
		t.Fatalf("WNS setup %v hold %v, want -127 and -4", res.WNSSetup, res.WNSHold)
	}
	if res.NumSetupViolations != 1 || res.NumHoldViolations != 1 {
		t.Fatalf("violations setup %d hold %d, want 1 and 1", res.NumSetupViolations, res.NumHoldViolations)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("got %d pair summaries, want 2 (setup and hold kept apart): %+v", len(res.Pairs), res.Pairs)
	}
	for i, want := range []struct {
		typ   PathType
		slack float64
	}{{Setup, -127}, {Hold, -4}} {
		p := res.Pairs[i]
		if nl.Cells[p.Start].Name != "launch" || nl.Cells[p.End].Name != "capture" {
			t.Errorf("pair %d: %s -> %s, want launch -> capture", i, nl.Cells[p.Start].Name, nl.Cells[p.End].Name)
		}
		if p.Type != want.typ || p.Paths != 1 || math.Abs(p.WorstSlack-want.slack) > 1e-9 {
			t.Errorf("pair %d: %+v, want type %v, 1 path, slack %v", i, p, want.typ, want.slack)
		}
	}

	// And the batched engine agrees bit for bit.
	batched := AnalyzeCorners(nl, BatchConfig{PeriodPs: 200, Base: cell.Lib28()}, []Corner{{}})
	if !reflect.DeepEqual(batched[0].Pairs, res.Pairs) {
		t.Errorf("batched pairs differ: %+v vs %+v", batched[0].Pairs, res.Pairs)
	}
}

// TestGraphCache pins the compile-once contract, the same one
// engine.Cached has (its tests cover the concurrent, panicking and
// collectable cases of the shared netlist memo): the same netlist
// pointer yields the same graph, a clone its own, and only first
// compiles count as misses.
func TestGraphCache(t *testing.T) {
	nl := randomTimedNetlist(1)
	before := GraphCacheStats()
	g := CachedGraph(nl)
	if CachedGraph(nl) != g {
		t.Error("CachedGraph recompiled for the same netlist")
	}
	if CachedGraph(nl.Clone()) == g {
		t.Error("a clone shares its original's timing graph")
	}
	after := GraphCacheStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 2 || hits != 1 {
		t.Errorf("three calls on two netlists recorded %d misses and %d hits, want 2 and 1", misses, hits)
	}
}
