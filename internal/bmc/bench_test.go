package bmc_test

import (
	"math"
	"testing"

	"repro/internal/alu"
	"repro/internal/bmc"
	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/fpu"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// benchSpec picks the same realistic setup-violating pair the end-to-end
// test uses: the top result-bit register as the endpoint and the operand
// register latching a[msb] as the start.
func benchSpec(m *module.Module) fault.Spec { return benchSpecAt(m, 31) }

// benchSpecAt is that pair at another bit of the datapath.
func benchSpecAt(m *module.Module, bit int) fault.Spec {
	nl := m.Netlist
	out, _ := nl.FindOutput(module.PortResult)
	end := nl.Driver(out.Bits[bit])
	inPort, _ := nl.FindInput(module.PortA)
	start := netlist.NoCell
	for _, cid := range nl.Readers()[inPort.Bits[bit]] {
		if nl.Cells[cid].Kind == cell.DFF {
			start = cid
		}
	}
	if start == netlist.NoCell || end == netlist.NoCell {
		panic("bench: could not locate DFF pair")
	}
	return fault.Spec{Type: sta.Setup, Start: start, End: end, C: fault.C1}
}

// BenchmarkCover times the incremental engine on the shadow replicas of
// the real ALU and FPU at the default bound of 8 cycles, under the full
// assume-environment Error Lifting uses (legal ops, issue cadence,
// handshake observability).
func BenchmarkCover(b *testing.B) {
	for _, unit := range benchUnits {
		m := unit.build()
		inst := fault.ShadowReplica(m.Netlist, benchSpec(m))
		cfg := lift.BMCConfig(m, lift.Config{})
		b.Run(unit.name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bmc.Cover(inst.Netlist, inst.Covers, cfg)
				if res.Verdict != bmc.Covered {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}

var benchUnits = []struct {
	name  string
	build func() *module.Module
}{
	{"ALU", alu.Build},
	{"FPU", fpu.Build},
}

// TestCoverAllocsBounded: a Cover query that starts on new storage
// allocates per frame (the net -> variable table, the assume selectors)
// and per doubling of the solver's flat storage (nine per-variable
// arrays, the clause arena, the watch-list slab), not per clause: at
// most 16 x (frames + log2 clauses) allocations. Measured 227 on the ALU
// replica (3 frames, 10,906 clauses) and 261 on the FPU's (57,324
// clauses); the pointer-per-clause solver made 66,736 and 351,825. A
// query that finds an earlier one's storage in the pool allocates per
// frame alone — the selectors, the cover targets, the trace: at most
// 16 x frames (measured 28 on both). The pool may hand out new storage
// at any time (it is emptied by the collector, and drops a quarter of
// what it is given under the race detector), so the second bound is
// asked of the cheapest of eight calls.
func TestCoverAllocsBounded(t *testing.T) {
	for _, unit := range benchUnits {
		m := unit.build()
		inst := fault.ShadowReplica(m.Netlist, benchSpec(m))
		cfg := lift.BMCConfig(m, lift.Config{})
		var res *bmc.Result
		got := testing.AllocsPerRun(3, func() { res = bmc.CoverFresh(inst.Netlist, inst.Covers, cfg) })
		bound := 16 * (float64(res.Depth) + math.Log2(float64(res.Stats.Clauses)))
		if got > bound {
			t.Errorf("%s: Cover made %v allocations for %d frames and %d clauses, want at most %.0f",
				unit.name, got, res.Depth, res.Stats.Clauses, bound)
		}
		pooled := math.Inf(1)
		for i := 0; i < 8; i++ {
			pooled = min(pooled, testing.AllocsPerRun(1, func() { res = bmc.Cover(inst.Netlist, inst.Covers, cfg) }))
		}
		if bound := 16 * float64(res.Depth); pooled > bound {
			t.Errorf("%s: Cover on pooled storage made %v allocations for %d frames, want at most %.0f",
				unit.name, pooled, res.Depth, bound)
		}
	}
}
