package bmc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/demo"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sat"
	"repro/internal/sta"
)

// randomSequentialNetlist builds a random synchronous DAG with at least
// two flip-flops and a handful of exposed outputs, so that random fault
// specs have DFF pairs to target and the fault cone usually reaches an
// observable bit. Cells only read already-driven nets, so the result
// always validates.
func randomSequentialNetlist(seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(fmt.Sprintf("rnd%d", seed))
	clk := b.Clock("clk")
	nIn := 2 + rng.Intn(4)
	in := b.InputBus("x", nIn)
	pool := append(netlist.Bus{}, in...)
	kinds := []cell.Kind{
		cell.BUF, cell.INV, cell.AND2, cell.OR2, cell.NAND2,
		cell.NOR2, cell.XOR2, cell.XNOR2, cell.MUX2, cell.AOI21, cell.OAI21,
	}
	// Two guaranteed flip-flops so every spec has a pair to pick from.
	pool = append(pool, b.AddDFF(pool[rng.Intn(len(pool))], clk, rng.Intn(2) == 0))
	pool = append(pool, b.AddDFF(pool[rng.Intn(len(pool))], clk, rng.Intn(2) == 0))
	nCells := 5 + rng.Intn(30)
	for i := 0; i < nCells; i++ {
		if rng.Intn(4) == 0 {
			d := pool[rng.Intn(len(pool))]
			pool = append(pool, b.AddDFF(d, clk, rng.Intn(2) == 0))
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		ins := make([]netlist.NetID, k.NumInputs())
		for j := range ins {
			ins[j] = pool[rng.Intn(len(pool))]
		}
		pool = append(pool, b.Add(k, ins...))
	}
	// Expose the tail of the pool: several observation points, so fault
	// cones terminate at module outputs more often than a single bit
	// would allow.
	nOut := 3
	if nOut > len(pool) {
		nOut = len(pool)
	}
	for i := 0; i < nOut; i++ {
		b.Output(fmt.Sprintf("y%d", i), pool[len(pool)-1-i])
	}
	return b.MustBuild()
}

// dffCells lists the flip-flop cells of a netlist (fault specs may only
// name DFFs as start/end points).
func dffCells(nl *netlist.Netlist) []netlist.CellID {
	var out []netlist.CellID
	for i, c := range nl.Cells {
		if c.Kind == cell.DFF {
			out = append(out, netlist.CellID(i))
		}
	}
	return out
}

// specFromBytes derives a fault spec over nl's flip-flops from four
// fuzz-controlled bytes. Start==End (the same-flip-flop metastable case)
// is deliberately reachable.
func specFromBytes(nl *netlist.Netlist, b0, b1, b2, b3 byte) fault.Spec {
	dffs := dffCells(nl)
	spec := fault.Spec{
		Start: dffs[int(b0)%len(dffs)],
		End:   dffs[int(b1)%len(dffs)],
	}
	if b2&1 == 1 {
		spec.Type = sta.Hold
	} else {
		spec.Type = sta.Setup
	}
	if b2&2 == 2 {
		spec.C = fault.C1
	} else {
		spec.C = fault.C0
	}
	spec.Edge = fault.EdgeFilter(int(b3) % 3)
	return spec
}

// checkEquivalence runs the incremental Cover and the from-scratch
// CoverSingleShot on one instrumented netlist and cross-checks the two:
// identical verdicts, replayable traces on both paths, and an
// incremental depth no deeper than the single-shot bound.
func checkEquivalence(t *testing.T, name string, inst *fault.Instrumented, cfg Config) {
	t.Helper()
	inc := Cover(inst.Netlist, inst.Covers, cfg)
	scr := CoverSingleShot(inst.Netlist, inst.Covers, cfg)
	if inc.Verdict != scr.Verdict {
		t.Fatalf("%s: incremental=%v scratch=%v", name, inc.Verdict, scr.Verdict)
	}
	if inc.Verdict != Covered {
		return
	}
	if inc.Depth > scr.Depth {
		t.Fatalf("%s: incremental depth %d exceeds scratch depth %d", name, inc.Depth, scr.Depth)
	}
	if inc.Depth != inc.Trace.CoverCycle+1 || inc.Trace.Cycles != inc.Depth {
		t.Fatalf("%s: depth %d inconsistent with trace (cover cycle %d, cycles %d)",
			name, inc.Depth, inc.Trace.CoverCycle, inc.Trace.Cycles)
	}
	if !Replay(inst.Netlist, inc.Trace) {
		t.Fatalf("%s: incremental trace does not replay", name)
	}
	if !Replay(inst.Netlist, scr.Trace) {
		t.Fatalf("%s: scratch trace does not replay", name)
	}
}

// TestIncrementalMatchesScratch is the differential layer proving the
// incremental engine equivalent to the retained single-shot path, over
// a corpus of hand-built modules, every adder spec variant, and a sweep
// of random netlists with random fault specs.
func TestIncrementalMatchesScratch(t *testing.T) {
	adder := demo.Adder2()
	for _, typ := range []sta.PathType{sta.Setup, sta.Hold} {
		for _, c := range []fault.CValue{fault.C0, fault.C1} {
			for _, e := range []fault.EdgeFilter{fault.AnyChange, fault.RisingEdge, fault.FallingEdge} {
				spec := adderSpec(adder, c)
				spec.Type = typ
				spec.Edge = e
				inst := fault.ShadowReplica(adder, spec)
				checkEquivalence(t, "adder/"+spec.Name(adder), inst, Config{})
			}
		}
	}

	// The masked netlist: both engines must prove unreachability.
	masked := maskedNetlist()
	spec := fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(masked, "x"),
		End:   demo.CellIDByName(masked, "y"),
		C:     fault.C1,
	}
	checkEquivalence(t, "masked", fault.ShadowReplica(masked, spec), Config{MaxDepth: 6})

	// The delay chain: the case where incremental depth < scratch depth.
	chain := delayChainNetlist()
	checkEquivalence(t, "chain", fault.ShadowReplica(chain, delayChainSpec(chain)), Config{})

	nRandom := 60
	if testing.Short() {
		nRandom = 12
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nRandom; i++ {
		nl := randomSequentialNetlist(int64(i))
		spec := specFromBytes(nl, byte(rng.Intn(256)), byte(rng.Intn(256)),
			byte(rng.Intn(256)), byte(rng.Intn(256)))
		inst := fault.ShadowReplica(nl, spec)
		checkEquivalence(t, fmt.Sprintf("rnd%d/%s", i, spec.Name(nl)), inst,
			Config{MaxDepth: 5})
	}
}

// maskedNetlist reproduces TestUnreachableWhenMasked's circuit: the
// faulty flip-flop's output is ANDed with constant zero before the
// module output, so no input sequence observes the fault.
func maskedNetlist() *netlist.Netlist {
	b := netlist.NewBuilder("masked")
	clk := b.Clock("clk")
	d := b.Input("d")
	x := b.AddDFFNamed("x", d, clk, false)
	y := b.AddDFFNamed("y", x, clk, false)
	zero := b.Add(cell.TIE0)
	out := b.Add(cell.AND2, y, zero)
	b.Output("o", out)
	return b.MustBuild()
}

// delayChainNetlist builds d -> X -> Y -> c1 -> o: a fault on the X->Y
// path needs two cycles to activate with the right polarity, one cycle
// to capture, and one more to ripple through c1 — the cover is first
// observable at cycle 4, i.e. minimal depth 5.
func delayChainNetlist() *netlist.Netlist {
	b := netlist.NewBuilder("chain")
	clk := b.Clock("clk")
	d := b.Input("d")
	x := b.AddDFFNamed("x", d, clk, false)
	y := b.AddDFFNamed("y", x, clk, false)
	c1 := b.AddDFFNamed("c1", y, clk, false)
	b.Output("o", c1)
	return b.MustBuild()
}

func delayChainSpec(nl *netlist.Netlist) fault.Spec {
	return fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(nl, "x"),
		End:   demo.CellIDByName(nl, "y"),
		C:     fault.C1,
	}
}

// TestMinimalDepthReported is the regression for the depth bug: the old
// {4, MaxDepth} schedule reported Depth == MaxDepth for any cover deeper
// than 4 cycles. The delay chain's fault is first observable at cycle 4,
// so Cover with MaxDepth 8 must report the minimal depth 5 — not 8 —
// and MaxDepth 4 must prove it unreachable within the bound.
func TestMinimalDepthReported(t *testing.T) {
	nl := delayChainNetlist()
	inst := fault.ShadowReplica(nl, delayChainSpec(nl))

	res := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: 8})
	if res.Verdict != Covered {
		t.Fatalf("verdict %v, want covered", res.Verdict)
	}
	if res.Depth != 5 {
		t.Fatalf("Depth = %d, want minimal depth 5", res.Depth)
	}
	if res.Trace.CoverCycle != 4 || res.Trace.Cycles != 5 {
		t.Fatalf("trace cover cycle %d / cycles %d, want 4 / 5",
			res.Trace.CoverCycle, res.Trace.Cycles)
	}
	if !Replay(inst.Netlist, res.Trace) {
		t.Fatal("minimal-depth trace does not replay")
	}

	// Minimality cross-check: one cycle shallower is a proof of absence.
	shallow := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: 4})
	if shallow.Verdict != Unreachable {
		t.Fatalf("MaxDepth 4 verdict %v, want unreachable", shallow.Verdict)
	}
}

// TestStrideCoarsensDepth documents the stride trade-off: with Stride 4
// the chain's cover is found inside the second window [4,8), the
// reported depth comes from whichever witness cycle the model happens
// to diverge at first — minimal only up to the stride — and the refuted
// first window still bounds it from below.
func TestStrideCoarsensDepth(t *testing.T) {
	nl := delayChainNetlist()
	inst := fault.ShadowReplica(nl, delayChainSpec(nl))
	res := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: 8, Stride: 4})
	if res.Verdict != Covered {
		t.Fatalf("verdict %v, want covered", res.Verdict)
	}
	if res.Depth < 5 || res.Depth > 8 {
		t.Fatalf("Depth = %d, want within (4,8]: the 0-3 window was refuted", res.Depth)
	}
	if !Replay(inst.Netlist, res.Trace) {
		t.Fatal("stride-4 trace does not replay")
	}
}

// TestCoverStatsAccounting checks that the per-result stats reflect the
// iterative-deepening schedule: one Solve per window, nonzero CNF size,
// and budget-limited runs surface as Timeout.
func TestCoverStatsAccounting(t *testing.T) {
	nl := delayChainNetlist()
	inst := fault.ShadowReplica(nl, delayChainSpec(nl))

	res := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: 8})
	if res.Stats.Solves != 5 {
		t.Errorf("Solves = %d, want 5 (windows 1..5)", res.Stats.Solves)
	}
	if res.Stats.Vars == 0 || res.Stats.Clauses == 0 {
		t.Errorf("empty CNF stats: %+v", res.Stats)
	}

	unreach := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: 4})
	if unreach.Stats.Solves != 4 {
		t.Errorf("unreachable Solves = %d, want 4", unreach.Stats.Solves)
	}

	// An exhausted shared budget must yield Timeout, not a bogus proof.
	// MaxConflicts can't be 0 (that means "default"), so give a budget
	// too small for the hard ALU-sized instance instead: the adder with
	// one conflict of budget. If even that solves conflict-free, the
	// check is vacuous but harmless.
	adder := demo.Adder2()
	ainst := fault.ShadowReplica(adder, adderSpec(adder, fault.C1))
	tiny := Cover(ainst.Netlist, ainst.Covers, Config{MaxDepth: 8, MaxConflicts: 1})
	if tiny.Verdict == Unreachable {
		t.Errorf("budget-starved run claimed a proof: %+v", tiny)
	}
}

// newUnroller is an unroller that has never been anyone else's: a new
// solver, no frame tables.
func newUnroller(prog *engine.Program, cfg Config) *unroller {
	u := &unroller{s: sat.New()}
	u.reset(prog, cfg)
	return u
}

// CoverFresh is Cover on storage no earlier query has used: what the
// first Cover call of a process computes, and so what every later one
// has to.
func CoverFresh(nl *netlist.Netlist, covers []fault.CoverPoint, cfg Config) *Result {
	cfg.fill()
	if len(covers) == 0 {
		return &Result{Verdict: Unreachable, Depth: 0}
	}
	return newUnroller(engine.Cached(nl), cfg).cover(covers)
}

// CoverSingleShot is the from-scratch oracle: a fresh solver, the full
// MaxDepth-cycle CNF encoded in one pass, the cover disjunction over
// every cycle added as a plain clause, and a single Solve call. Depth is
// always MaxDepth (the single-shot bound proves nothing about shallower
// depths).
func CoverSingleShot(nl *netlist.Netlist, covers []fault.CoverPoint, cfg Config) *Result {
	cfg.fill()
	if len(covers) == 0 {
		return &Result{Verdict: Unreachable, Depth: 0}
	}
	u := newUnroller(engine.Cached(nl), cfg)
	u.extendTo(cfg.MaxDepth)
	st := u.solveFinal(covers)
	res := &Result{Depth: cfg.MaxDepth, Stats: u.stats()}
	switch st {
	case sat.Sat:
		res.Verdict = Covered
		res.Trace = u.extract(covers)
	case sat.Unsat:
		res.Verdict = Unreachable
	default:
		res.Verdict = Timeout
	}
	return res
}

// solveFinal is the single-shot variant: the cover disjunction over
// every encoded cycle as a plain (unguarded) clause, one Solve call.
func (u *unroller) solveFinal(covers []fault.CoverPoint) sat.Status {
	var lits []sat.Lit
	for t := 0; t < len(u.vars); t++ {
		lits = append(lits, u.coverTargets(covers, t)...)
	}
	u.s.AddClause(lits...)
	return u.solveBudgeted()
}

// pigeonholeMaskedNetlist is d -> X -> Y -> o with Y's output ANDed
// with a circuit that checks whether the input bus seats `pigeons`
// pigeons in `holes` holes, one per hole. It never does, so a fault on
// the X -> Y path is unobservable — but once Y can differ from its
// shadow, refuting each window costs the solver a pigeonhole proof over
// that cycle's fresh inputs.
func pigeonholeMaskedNetlist(pigeons, holes int) *netlist.Netlist {
	b := netlist.NewBuilder("phpmask")
	clk := b.Clock("clk")
	d := b.Input("d")
	x := b.AddDFFNamed("x", d, clk, false)
	y := b.AddDFFNamed("y", x, clk, false)
	in := b.InputBus("p", pigeons*holes)
	ok := y
	for p := 0; p < pigeons; p++ {
		seated := in[p*holes]
		for h := 1; h < holes; h++ {
			seated = b.Add(cell.OR2, seated, in[p*holes+h])
		}
		ok = b.Add(cell.AND2, ok, seated)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				ok = b.Add(cell.AND2, ok, b.Add(cell.NAND2, in[p1*holes+h], in[p2*holes+h]))
			}
		}
	}
	b.Output("o", ok)
	return b.MustBuild()
}

// TestBudgetRunsOutInLaterWindow is the Cover-level regression for the
// solver's budget livelock: the shared budget is handed to each window
// as what is left of it, so a window that starts with less left than
// the solver has already spent used to spin forever instead of
// answering Timeout.
func TestBudgetRunsOutInLaterWindow(t *testing.T) {
	nl := pigeonholeMaskedNetlist(7, 6)
	inst := fault.ShadowReplica(nl, delayChainSpec(nl))

	// The first window whose refutation is a real search, and the
	// conflicts spent through it.
	var hard int
	var cost int64
	for hard = 0; cost < 50; {
		hard++
		res := Cover(inst.Netlist, inst.Covers, Config{MaxDepth: hard})
		if res.Verdict != Unreachable {
			t.Fatalf("MaxDepth %d: verdict %v, want unreachable", hard, res.Verdict)
		}
		cost = res.Stats.Solver.Conflicts
	}
	t.Logf("%d conflicts through window %d", cost, hard)

	// Enough for that window and a quarter of the next one.
	cfg := Config{MaxDepth: 8, MaxConflicts: cost + cost/4}
	done := make(chan *Result, 1)
	go func() { done <- Cover(inst.Netlist, inst.Covers, cfg) }()
	select {
	case res := <-done:
		if res.Verdict != Timeout || res.Depth != hard+1 {
			t.Errorf("verdict %v at depth %d, want timeout at depth %d", res.Verdict, res.Depth, hard+1)
		}
		if n := res.Stats.Solver.Conflicts; n < cfg.MaxConflicts || n > cfg.MaxConflicts+cost/4 {
			t.Errorf("%d conflicts spent against a budget of %d", n, cfg.MaxConflicts)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Cover did not return: window %d started with %d conflicts left after %d spent", hard+1, cost/4, cost)
	}
}
