package sta

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// the pre-batched LifetimeSweep/TemperatureSweep did.
func scalarBaseline(nl *netlist.Netlist, cfg BatchConfig, corners []Corner) []*Result {
	out := make([]*Result, len(corners))
	for i, c := range corners {
		sc := Config{
			PeriodPs:    cfg.PeriodPs,
			Scale:       cfg.Scale,
			MaxPaths:    cfg.MaxPaths,
			PerEndpoint: cfg.PerEndpoint,
		}
		if c.Years > 0 {
			model := cfg.Model
			if c.TempK != 0 && c.TempK != model.TempK {
				clone := *model
				clone.TempK = c.TempK
				model = &clone
			}
			sc.Aged = aging.NewLibrary(cfg.Base, model, c.Years)
			sc.Profile = cfg.Profile
		} else {
			sc.Base = cfg.Base
		}
		out[i] = Analyze(nl, sc)
	}
	return out
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
		if rng.Intn(3) == 0 {
			c.TempK = 300 + rng.Float64()*110
		}
		corners[i] = c
	}
	return nl, cfg, corners
}

// TestBatchedMatchesScalar is the testing/quick property at the heart of
// the batched engine's contract: over randomized netlists, SP profiles,
// corner sets, scales, caps and parallelism, every per-corner Result —
// WNS, violation counts, truncation, the full sorted Pairs slice, delay
// factors, clock arrivals and the embedded Config — must deep-equal the
// scalar baseline's. DeepEqual compares float64s with ==, so this is
// bit-identity, not tolerance.
func TestBatchedMatchesScalar(t *testing.T) {
	prop := func(seed int64) bool {
		nl, cfg, corners := randomCase(seed)
		got := AnalyzeCorners(nl, cfg, corners)
		want := scalarBaseline(nl, cfg, corners)
		for k := range corners {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Logf("seed %d corner %d (%+v):\n  batched: %+v\n  scalar:  %+v",
					seed, k, corners[k], got[k], want[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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
