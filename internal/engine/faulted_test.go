package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// randomSequentialNetlist builds a random synchronous DAG with several
// flip-flops and exposed outputs (the same shape the BMC differential
// tests use), so random fault specs have DFF pairs to target and the
// fault cone usually reaches an observable bit.
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
	for i := 0; i < 3 && i < len(pool); i++ {
		b.Output(fmt.Sprintf("y%d", i), pool[len(pool)-1-i])
	}
	return b.MustBuild()
}

func dffCells(nl *netlist.Netlist) []netlist.CellID {
	var out []netlist.CellID
	for i, c := range nl.Cells {
		if c.Kind == cell.DFF {
			out = append(out, netlist.CellID(i))
		}
	}
	return out
}

func randomFaultSpec(rng *rand.Rand, dffs []netlist.CellID) fault.Spec {
	s := fault.Spec{
		Start: dffs[rng.Intn(len(dffs))],
		End:   dffs[rng.Intn(len(dffs))],
		C:     fault.CValue(rng.Intn(3)),
		Edge:  fault.EdgeFilter(rng.Intn(3)),
	}
	if rng.Intn(2) == 1 {
		s.Type = sta.Hold
	}
	return s
}

// overlayFor mirrors the inject package's fault.Spec -> engine.Overlay
// translation for a single lane.
func overlayFor(f fault.Spec, lanes uint64) engine.Overlay {
	o := engine.Overlay{Lanes: lanes, Start: f.Start, End: f.End}
	if f.Type == sta.Hold {
		o.Check = engine.OverlayHold
	}
	o.C = engine.OverlayC(f.C)
	o.Edge = engine.OverlayEdge(f.Edge)
	return o
}

// TestFaultedPackedMatchesFailingNetlist is the overlay-semantics
// differential: for random netlists and random single/multi fault
// specs, a FaultedPacked lane must match, output bit for output bit and
// cycle for cycle, a scalar simulation of the corresponding
// fault.FailingNetlist — while lane 0 matches the healthy netlist.
func TestFaultedPackedMatchesFailingNetlist(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 12
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nl := randomSequentialNetlist(seed)
		dffs := dffCells(nl)

		nFaults := 1 + rng.Intn(2)
		var specs []fault.Spec
		ends := map[netlist.CellID]bool{}
		for len(specs) < nFaults {
			s := randomFaultSpec(rng, dffs)
			if ends[s.End] {
				continue
			}
			ends[s.End] = true
			specs = append(specs, s)
		}
		var failNl *netlist.Netlist
		if len(specs) == 1 {
			failNl = fault.FailingNetlist(nl, specs[0])
		} else {
			var err error
			failNl, err = fault.FailingNetlistMulti(nl, specs...)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		lane := 1 + rng.Intn(63)
		var overlays []engine.Overlay
		for _, s := range specs {
			overlays = append(overlays, overlayFor(s, uint64(1)<<uint(lane)))
		}
		fp, err := engine.CompileFaulted(engine.Cached(nl), overlays)
		if err != nil {
			t.Fatalf("seed %d: CompileFaulted: %v", seed, err)
		}
		pe := engine.NewFaultedPacked(fp)
		healthy := sim.New(nl)
		failing := sim.New(failNl)

		xW := 0
		for _, p := range nl.Inputs {
			if p.Name == "x" {
				xW = len(p.Bits)
			}
		}
		for cyc := 0; cyc < 40; cyc++ {
			in := rng.Uint64() & (1<<uint(xW) - 1)
			pe.SetInputLanes("x", ^uint64(0), in)
			healthy.SetInput("x", in)
			failing.SetInput("x", in)
			pe.Settle()
			for _, p := range nl.Outputs {
				wantG := healthy.Output(p.Name)
				wantF := failing.Output(p.Name)
				for i, n := range p.Bits {
					if got := pe.Lane(n, 0); got != (wantG>>uint(i)&1 == 1) {
						t.Fatalf("seed %d cycle %d: golden lane %s[%d] = %v, scalar %v",
							seed, cyc, p.Name, i, got, !got)
					}
					if got := pe.Lane(n, lane); got != (wantF>>uint(i)&1 == 1) {
						t.Fatalf("seed %d cycle %d lane %d (faults %v): %s[%d] = %v, scalar failing %v",
							seed, cyc, lane, specs, p.Name, i, got, !got)
					}
				}
			}
			pe.Edge()
			healthy.Step()
			failing.Step()
		}
	}
}

// TestFaultedPackedHoldFreezesLane: a lane held from reset, its inputs
// left alone, keeps every net at its reset settle and never sees its
// overlay, while the golden lane runs on.
func TestFaultedPackedHoldFreezesLane(t *testing.T) {
	nl := randomSequentialNetlist(7)
	dffs := dffCells(nl)
	spec := fault.Spec{Type: sta.Setup, Start: dffs[0], End: dffs[1], C: fault.C1, Edge: fault.AnyChange}
	fp, err := engine.CompileFaulted(engine.Cached(nl), []engine.Overlay{overlayFor(spec, 1<<5)})
	if err != nil {
		t.Fatal(err)
	}
	pe := engine.NewFaultedPacked(fp)
	pe.Settle()
	reset := make([]bool, nl.NumNets)
	for n := range reset {
		reset[n] = pe.Lane(netlist.NetID(n), 5)
	}
	pe.Hold(1 << 5)
	rng := rand.New(rand.NewSource(9))
	moved := false
	for cyc := 0; cyc < 30; cyc++ {
		pe.SetInputLanes("x", ^uint64(1<<5), rng.Uint64()&3)
		pe.Settle()
		for n := range reset {
			id := netlist.NetID(n)
			if pe.Lane(id, 5) != reset[n] {
				t.Fatalf("cycle %d: held lane's net %s left its reset value", cyc, nl.NetName(id))
			}
			moved = moved || pe.Lane(id, 0) != reset[n]
		}
		pe.Edge()
	}
	if !moved {
		t.Fatal("the golden lane never left its reset values either")
	}
}

// TestCompileFaultedRejects pins the overlay validation rules.
func TestCompileFaultedRejects(t *testing.T) {
	nl := randomSequentialNetlist(3)
	dffs := dffCells(nl)
	p := engine.Cached(nl)
	comb := netlist.CellID(-1)
	for i := range nl.Cells {
		if nl.Cells[i].Kind != cell.DFF {
			comb = netlist.CellID(i)
			break
		}
	}
	ok := engine.Overlay{Lanes: 1 << 1, Start: dffs[0], End: dffs[1]}
	bad := []struct {
		name string
		ovs  []engine.Overlay
	}{
		{"empty mask", []engine.Overlay{{Start: dffs[0], End: dffs[1]}}},
		{"golden lane", []engine.Overlay{{Lanes: 1, Start: dffs[0], End: dffs[1]}}},
		{"out of range", []engine.Overlay{{Lanes: 1 << 1, Start: 1 << 29, End: dffs[1]}}},
		{"not a DFF", []engine.Overlay{{Lanes: 1 << 1, Start: comb, End: dffs[1]}}},
		{"duplicate endpoint same lane", []engine.Overlay{ok, {Lanes: 1 << 1, Start: dffs[1], End: dffs[1]}}},
	}
	for _, tc := range bad {
		if _, err := engine.CompileFaulted(p, tc.ovs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The same endpoint in different lanes is legal — that is the whole
	// point of lane packing.
	if _, err := engine.CompileFaulted(p, []engine.Overlay{ok, {Lanes: 1 << 2, Start: dffs[1], End: dffs[1]}}); err != nil {
		t.Errorf("distinct-lane endpoint sharing rejected: %v", err)
	}
}
