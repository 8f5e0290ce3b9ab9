package bmc

import (
	"runtime"
	"testing"

	"repro/internal/alu"
	"repro/internal/cell"
	"repro/internal/demo"
	"repro/internal/fault"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func adderSpec(nl *netlist.Netlist, c fault.CValue) fault.Spec {
	return fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(nl, "DFF$4"),
		End:   demo.CellIDByName(nl, "DFF$10"),
		C:     c,
	}
}

func TestCoverAdderSetupFault(t *testing.T) {
	orig := demo.Adder2()
	for _, c := range []fault.CValue{fault.C0, fault.C1} {
		inst := fault.ShadowReplica(orig, adderSpec(orig, c))
		res := Cover(inst.Netlist, inst.Covers, Config{})
		if res.Verdict != Covered {
			t.Fatalf("C=%v: verdict %v, want covered", c, res.Verdict)
		}
		if res.Trace.CoverCycle < 0 {
			t.Fatal("no cover cycle recorded")
		}
		if !Replay(inst.Netlist, res.Trace) {
			t.Fatalf("C=%v: trace does not replay", c)
		}
	}
}

func TestCoverHoldFault(t *testing.T) {
	orig := demo.Adder2()
	spec := fault.Spec{
		Type:  sta.Hold,
		Start: demo.CellIDByName(orig, "DFF$1"),
		End:   demo.CellIDByName(orig, "DFF$9"),
		C:     fault.C1,
	}
	inst := fault.ShadowReplica(orig, spec)
	res := Cover(inst.Netlist, inst.Covers, Config{})
	if res.Verdict != Covered {
		t.Fatalf("verdict %v, want covered", res.Verdict)
	}
	if !Replay(inst.Netlist, res.Trace) {
		t.Fatal("hold trace does not replay")
	}
}

func TestUnreachableWhenMasked(t *testing.T) {
	// Y's output is masked to zero before the module output: no input
	// sequence can make the fault observable, and BMC must prove it
	// (the paper's "UR" outcome).
	b := netlist.NewBuilder("masked")
	clk := b.Clock("clk")
	d := b.Input("d")
	x := b.AddDFFNamed("x", d, clk, false)
	y := b.AddDFFNamed("y", x, clk, false)
	zero := b.Add(cell.TIE0)
	out := b.Add(cell.AND2, y, zero)
	b.Output("o", out)
	nl := b.MustBuild()
	spec := fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(nl, "x"),
		End:   demo.CellIDByName(nl, "y"),
		C:     fault.C1,
	}
	inst := fault.ShadowReplica(nl, spec)
	withBounds(t, 6, maxConflicts)
	res := Cover(inst.Netlist, inst.Covers, Config{})
	if res.Verdict != Unreachable {
		t.Fatalf("verdict %v, want unreachable", res.Verdict)
	}
}

// TestUnpooledUnrollerCollected: a query that runs to the bound is not
// pooled, and Cover collects its room before returning, so no heap goal
// the collector sets afterwards counts it.
func TestUnpooledUnrollerCollected(t *testing.T) {
	nl := maskedNetlist()
	inst := fault.ShadowReplica(nl, fault.Spec{
		Type:  sta.Setup,
		Start: demo.CellIDByName(nl, "x"),
		End:   demo.CellIDByName(nl, "y"),
		C:     fault.C1,
	})
	withBounds(t, 6, maxConflicts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Cover(inst.Netlist, inst.Covers, Config{})
	runtime.ReadMemStats(&after)
	if res.Verdict != Unreachable {
		t.Fatalf("verdict %v, want unreachable", res.Verdict)
	}
	if after.NumGC == before.NumGC {
		t.Fatal("Cover dropped an unroller that ran to the bound without collecting it")
	}
}

func TestEdgeMitigationTracesDiffer(t *testing.T) {
	// Rising- and falling-filtered variants must both be coverable, with
	// valid replays (§3.3.4 generates both).
	orig := demo.Adder2()
	for _, e := range []fault.EdgeFilter{fault.RisingEdge, fault.FallingEdge} {
		spec := adderSpec(orig, fault.C1)
		spec.Edge = e
		inst := fault.ShadowReplica(orig, spec)
		res := Cover(inst.Netlist, inst.Covers, Config{})
		if res.Verdict != Covered {
			t.Fatalf("edge %v: verdict %v", e, res.Verdict)
		}
		if !Replay(inst.Netlist, res.Trace) {
			t.Fatalf("edge %v: trace does not replay", e)
		}
	}
}

func TestAssumeConstraintsRespected(t *testing.T) {
	orig := demo.Adder2()
	inst := fault.ShadowReplica(orig, adderSpec(orig, fault.C1))
	// Restrict a to 0: the fault on the b-path is still coverable, and
	// every cycle of the trace must honor the restriction.
	res := Cover(inst.Netlist, inst.Covers, Config{
		Assume: []PortConstraint{{Port: "a", Allowed: []uint64{0}}},
	})
	if res.Verdict != Covered {
		t.Fatalf("verdict %v, want covered", res.Verdict)
	}
	for t2, v := range res.Trace.Inputs["a"] {
		if v != 0 {
			t.Fatalf("cycle %d: a=%d violates assume", t2, v)
		}
	}
	if !Replay(inst.Netlist, res.Trace) {
		t.Fatal("constrained trace does not replay")
	}
}

func TestAssumeCanForceUnreachable(t *testing.T) {
	orig := demo.Adder2()
	inst := fault.ShadowReplica(orig, adderSpec(orig, fault.C1))
	// Freeze both inputs to constants: X never changes, the setup fault
	// never activates.
	withBounds(t, 5, maxConflicts)
	res := Cover(inst.Netlist, inst.Covers, Config{
		Assume: []PortConstraint{
			{Port: "a", Allowed: []uint64{0}},
			{Port: "b", Allowed: []uint64{0}},
		},
	})
	if res.Verdict != Unreachable {
		t.Fatalf("verdict %v, want unreachable under frozen inputs", res.Verdict)
	}
}

func TestALUFaultEndToEnd(t *testing.T) {
	// The full pipeline on the real ALU: pick the adder's top result bit
	// register as the endpoint and one of the operand registers as the
	// start, instrument, cover with op-validity assumes, replay.
	m := alu.Build()
	nl := m.Netlist
	// Find a result register (drives result[31]) and an operand register
	// (a_q[31]): realistic setup-violating pair through the adder.
	out, _ := nl.FindOutput(module.PortResult)
	end := nl.Driver(out.Bits[31])
	inPort, _ := nl.FindInput(module.PortA)
	var start netlist.CellID = netlist.NoCell
	readers := nl.Readers()
	for _, cid := range readers[inPort.Bits[31]] {
		if nl.Cells[cid].Kind == cell.DFF {
			start = cid
		}
	}
	if start == netlist.NoCell || end == netlist.NoCell {
		t.Fatal("could not locate DFF pair")
	}
	spec := fault.Spec{Type: sta.Setup, Start: start, End: end, C: fault.C1}
	inst := fault.ShadowReplica(nl, spec)
	res := Cover(inst.Netlist, inst.Covers, Config{
		Assume: []PortConstraint{
			{Port: module.PortOp, Allowed: opRange(alu.NumOps)},
			{Port: module.PortInValid, Allowed: []uint64{0, 1}},
		},
		ValidPort: module.PortOutValid,
	})
	if res.Verdict != Covered {
		t.Fatalf("ALU fault verdict %v, want covered (depth %d)", res.Verdict, res.Depth)
	}
	if !Replay(inst.Netlist, res.Trace) {
		t.Fatal("ALU trace does not replay")
	}
	// The trace must only use legal ops.
	for _, op := range res.Trace.Inputs[module.PortOp] {
		if op >= alu.NumOps {
			t.Fatalf("trace uses illegal op %d", op)
		}
	}
	t.Logf("ALU fault covered at depth %d, cycle %d, cover point %s",
		res.Depth, res.Trace.CoverCycle, res.Trace.CoverPoint.Name)
}

func opRange(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func TestVerdictString(t *testing.T) {
	if Covered.String() != "covered" || Unreachable.String() != "unreachable" || Timeout.String() != "timeout" {
		t.Error("verdict strings wrong")
	}
}
